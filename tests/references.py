"""Reference implementations that the tests check the library against.

They live here, not in the package, because no library code calls them.
"""

from collections import Counter
from functools import lru_cache
from itertools import compress, product
from math import factorial, isqrt

from multifact.arith import MAX_N, FactoredInt, IntegrityError
from multifact.partitions import (
    centralizer_order,
    multiplicity_vector,
    nu_beta,
    partitions_of,
    theta_sign,
)


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


_primes: list[int] = []
_sieve_limit = 0


def _ensure_sieve(limit: int) -> None:
    """Extend this module's prime list to cover [2, limit]."""
    global _primes, _sieve_limit
    if limit <= _sieve_limit:
        return
    limit = max(limit, 2 * _sieve_limit, 1 << 10)
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    _primes = list(compress(range(limit + 1), sieve))
    _sieve_limit = limit


def trial_factorize(n: int) -> FactoredInt:
    """Canonical prime factorization by trial division over a sieve that
    grows to isqrt(n) + 1; the reference for ``arith.factorize``.

    Accepts 1 <= n <= MAX_N; anything else is a ``ValueError``.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > MAX_N:
        raise ValueError(f"factorize requires n <= {MAX_N}, got {n}")
    _ensure_sieve(isqrt(n) + 1)
    rest = n
    factors = []
    for p in _primes:
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    if rest > 1:
        factors.append((rest, 1))
    return FactoredInt(n, tuple(factors))


@lru_cache(maxsize=None)
def _classes(k: int) -> tuple:
    """(beta, k! / z_beta, theta(beta)) for each partition of k, as cycle
    types: k! / z_beta permutations of k objects have cycle type beta."""
    k_fact = factorial(k)
    out = []
    for p in partitions_of(k):
        beta = multiplicity_vector(p)
        out.append((beta, k_fact // centralizer_order(beta), theta_sign(beta)))
    return tuple(out)


def class_table_partition_sum(n: FactoredInt, k: int, signed: bool) -> int:
    """F_k(n), or G_k(n) when `signed`, by the partition sum over a table of
    the p(k) classes with nu_beta from the Euler recurrence; the reference
    that the tests check ``counting.big_F`` and ``counting.big_G`` against.
    """
    if k < 0:
        return 0
    powers = tuple(sorted(Counter(n.signature).items()))
    total = 0
    for beta, size, sign in _classes(k):
        for e, mult in powers:
            v = nu_beta(beta, e)
            if not v:
                break
            size *= v**mult
        else:
            total += sign * size if signed else size
    value, r = divmod(total, factorial(k))
    if r:
        raise IntegrityError(
            f"partition sum {total} of {n.value} at k = {k} not divisible by {k}!"
        )
    return value
