"""Reference implementations that the tests check the library against.

They live here, not in the package, because no library code calls them.
"""

from itertools import product

from multifact.arith import FactoredInt


def divisor_power_reductions(fi: FactoredInt) -> list[tuple[int, int, FactoredInt]]:
    """All triples (d, i, n / d**i) with d >= 2, i >= 1 and d**i dividing n,
    n / d**i factored, sorted by d, then i.

    Materialized from the exponent lattice rather than a 2..n scan, so the
    cost is proportional to the divisor count.  The counting core groups the
    same pairs by signature (``counting.reduction_table``); this is the
    reference that the tests check it against.
    """
    if fi.value == 1:
        raise ValueError("the unit 1 has no divisors >= 2")
    out = []
    for vec in product(*(range(e + 1) for _, e in fi.factors)):
        if not any(vec):
            continue
        d = 1
        for (p, _), c in zip(fi.factors, vec):
            d *= p**c
        i_max = min(e // c for (_, e), c in zip(fi.factors, vec) if c)
        value = fi.value
        for i in range(1, i_max + 1):
            value //= d
            reduced = tuple(
                (p, e - i * c) for (p, e), c in zip(fi.factors, vec) if e - i * c
            )
            out.append((d, i, FactoredInt(value, reduced)))
    out.sort(key=lambda entry: (entry[0], entry[1]))
    return out
