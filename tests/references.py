"""Reference implementations that the tests check the library against.

They live here, not in the package, because no library code calls them.
"""

from collections import Counter
from functools import lru_cache
from itertools import accumulate, compress, product
from math import comb, factorial, isqrt

from multifact.arith import MAX_N, BigCount, FactoredInt, IntegrityError
from multifact.counting import canonical
from multifact.oracle import enumerate_partitions
from multifact.partitions import centralizer_order, euler_transform, multiplicity_vector


def prime_power(p: int, e: int) -> FactoredInt:
    """p**e for a prime p, built from its factorization; the library builds
    an n from its signature only, which puts the largest exponent on 2."""
    return FactoredInt(p**e, ((p, e),) if e else ())


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


def reduction_table(sig: tuple[int, ...]) -> tuple:
    """The reference for ``counting.reduction_table``: the same entries,
    built by one pass over the exponent vectors sig - i * c of all powers i,
    grouped by (i, signature) and sorted, each group's weight recovered from
    the member vectors r as the sum of (sig[0] - r[0]) / i.  Uncached."""
    groups: dict = {}
    for i in range(1, max(sig, default=0) + 1):
        # the exponent vectors sig - i * c; the first has c = 0
        rests = product(*(range(e, -1, -i) for e in sig))
        next(rests)
        for r in rests:
            groups.setdefault((i, tuple(sorted(r, reverse=True))), []).append(r)
    entries = []
    for (i, rest), members in sorted(groups.items()):
        count = len(members)
        rest = rest[:len(rest) - rest.count(0)]
        # sum of c[0] = sum of (sig[0] - r[0]) / i over the group
        weight = (count * sig[0] - sum(r[0] for r in members)) // i
        entries.append((i, canonical(rest), sum(rest), count, weight))
    return tuple(entries)


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
    types: k! / z_beta permutations of k objects have cycle type beta.  The
    sign theta(beta) = (-1)**(sum_i (1+i) * beta_i) has the parity of the
    number of even parts, beta_2 + beta_4 + ..."""
    k_fact = factorial(k)
    out = []
    for p in enumerate_partitions(k):
        beta = multiplicity_vector(p)
        sign = -1 if sum(beta[1::2]) & 1 else 1
        out.append((beta, k_fact // centralizer_order(beta), sign))
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
            v = euler_transform(beta, e)[e - 1]
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


# The partition-sum walk over every partition of k, one node per partition
# whatever n's largest exponent, as ``counting._colored_classes`` ran before it
# closed the parts larger than top in one block; the tests check the shipped
# walk's sums against it.
def colored_classes(k: int, top: int):
    """Yield (k! / z_beta, number of even parts, nu) once for each partition
    beta of k, with nu[m] for m = 0..top the coefficient of x**m in
    prod_i (1 - x**i)**(-beta_i): the number of partitions of m in which part
    i comes in beta_i colors.

    One depth-first pass with an explicit stack; nothing sized by p(k) is
    kept.  The parts 1 come first, so (1 - x)**(-r) is built once for each
    count r of them; the parts >= 2 follow in nondecreasing order.  Adding a
    part v multiplies a copy of the parent's coefficients by 1 / (1 - x**v),
    one stride-v prefix sum; a part v > top leaves them unchanged.  The class
    size starts at k! and is divided by v * b when the b-th part v is added.
    Each of those divisions is exact: the z of a prefix of beta divides
    z_beta, which divides k!.
    """
    # (rest of k, least next part, count of that part so far, size, evens, nu)
    stack = []
    nu, size = [1] + [0] * top, factorial(k)
    for r in range(k):  # r parts 1 so far
        if k - r > 1:  # no part >= 2 makes up a rest of 1
            stack.append((k - r, 2, 0, size, 0, nu))
        nu = list(accumulate(nu))
        size //= r + 1
    yield size, 0, nu  # beta = (1,)*k, the empty partition when k = 0
    while stack:
        rest, low, mult, size, evens, nu = stack.pop()
        # the next part v is the whole rest, or leaves a rest of at least v
        for v in (*range(low, rest // 2 + 1), rest):
            b = mult + 1 if v == low else 1
            if v <= top:
                child = nu[:]
                for i in range(v, top + 1):
                    child[i] += child[i - v]
            else:
                child = nu
            node = (size // (v * b), evens + (not v & 1), child)
            if v == rest:
                yield node
            else:
                stack.append((rest - v, v, b, *node))


def walk_partition_sum(n: FactoredInt, k: int, signed: bool) -> int:
    """F_k(n), or G_k(n) when `signed`, summed over :func:`colored_classes`
    as the partition-sum route summed it, divided once by k!."""
    powers = tuple(sorted(Counter(n.signature).items()))
    total = 0
    for size, evens, nu in colored_classes(k, max(n.signature, default=0)):
        for e, mult in powers:
            size *= nu[e] ** mult
        total += -size if signed and evens & 1 else size
    value, r = divmod(total, factorial(k))
    if r:
        raise IntegrityError(f"walk sum {total} of {n.value} at k = {k} not divisible by {k}!")
    return value


# The partition recursions in their unpruned form, which the tests check
# `partition_counts` against: every sub-state is reached by a call, whatever
# its guard or memo entry says.  Each keeps its own memo;
# `clear_partition_memos` empties all three.
_REF_P_KL: dict[tuple[int, int, int], int] = {}
_REF_R_L: dict[tuple[int, int], int] = {}
_REF_R_LJ: dict[tuple[int, int, int], int] = {}


def clear_partition_memos() -> None:
    _REF_P_KL.clear()
    _REF_R_L.clear()
    _REF_R_LJ.clear()


def p_kl(n: int, k: int, l: int) -> BigCount:
    """Partitions of n with exactly k parts, of which exactly l are different.

    Computed by the triple-sum recursion
    n * p_{k,l}(n) = sum_{d=1..n} d * sum_{j=1..l} (-1)**(j+1)
                     * sum_{i=1..n//d} C(i, j) * p_{k-i, l-j}(n - i*d),
    with boundary p_{k,l}(0) = [k == l == 0] and 0 for any negative index.
    """
    if n < 0 or k < 0 or l < 0:
        return 0
    if n == 0:
        return 1 if k == 0 and l == 0 else 0
    if k == 0 or l == 0 or k > n or l > k or l * (l + 1) > 2 * n:
        return 0
    key = (n, k, l)
    hit = _REF_P_KL.get(key)
    if hit is not None:
        return hit
    total = 0
    for d in range(1, n + 1):
        for j in range(1, l + 1):
            inner = 0
            for i in range(j, n // d + 1):
                sub = p_kl(n - i * d, k - i, l - j)
                if sub:
                    inner += comb(i, j) * sub
            if inner:
                total += d * inner if j & 1 else -d * inner
    q, r = divmod(total, n)
    if r:
        raise IntegrityError(f"p_{{{k},{l}}}({n}) sum {total} not divisible by {n}")
    _REF_P_KL[key] = q
    return q


def r_l(n: int, l: int) -> BigCount:
    """Partitions of n with exactly l different part values; same recursion
    shape as :func:`p_kl` without the part-count index, and the first such
    recursion with no auxiliary function."""
    if n < 0 or l < 0:
        return 0
    if n == 0:
        return 1 if l == 0 else 0
    if l == 0 or l * (l + 1) > 2 * n:
        return 0
    key = (n, l)
    hit = _REF_R_L.get(key)
    if hit is not None:
        return hit
    total = 0
    for d in range(1, n + 1):
        for j in range(1, l + 1):
            inner = 0
            for i in range(j, n // d + 1):
                sub = r_l(n - i * d, l - j)
                if sub:
                    inner += comb(i, j) * sub
            if inner:
                total += d * inner if j & 1 else -d * inner
    q, r = divmod(total, n)
    if r:
        raise IntegrityError(f"r_{l}({n}) sum {total} not divisible by {n}")
    _REF_R_L[key] = q
    return q


def r_lj(n: int, l: int, j: int) -> BigCount:
    """Partitions of n with exactly l different part values, all parts >= j.

    Splits on the number i of parts equal to j:
    r_{l,j}(n) = r_{l,j+1}(n) + sum_{i=1..n//j} r_{l-1,j+1}(n - i*j).
    r_l(n) is the j = 1 case.
    """
    if j < 1:
        raise ValueError(f"r_lj requires j >= 1, got {j}")
    if n < 0 or l < 0:
        return 0
    if l == 0:
        return 1 if n == 0 else 0
    if j * l > n:
        return 0
    key = (n, l, j)
    hit = _REF_R_LJ.get(key)
    if hit is not None:
        return hit
    total = r_lj(n, l, j + 1)
    for i in range(1, n // j + 1):
        total += r_lj(n - i * j, l - 1, j + 1)
    _REF_R_LJ[key] = total
    return total


def colored_partition_count(beta, m: int) -> BigCount:
    """Partitions of m into parts i with beta_i >= 1, counted with colors.

    A part value i used c times contributes comb(beta_i + c - 1, c) ways to
    pick a multiset of c colors out of beta_i.  This reproduces the Euler
    transform by direct enumeration, with no shared code.
    """
    if m < 0:
        return 0
    allowed = [i for i, b in enumerate(beta, 1) if b > 0]

    def count(rem: int, idx: int) -> int:
        if rem == 0:
            return 1
        if idx == len(allowed):
            return 0
        i = allowed[idx]
        colors = beta[i - 1]
        total = 0
        for c in range(rem // i + 1):
            total += comb(colors + c - 1, c) * count(rem - c * i, idx + 1)
        return total

    return count(m, 0)
