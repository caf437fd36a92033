"""Partition and composition combinatorics of the part-count index k.

Provides the iterator over compositions, the integer weights of partitions
and compositions (z_beta and the prefix products), the sums of k! over the
prefix products per partition of k (:func:`composition_weights`, the table
the composition sum and the composition-aggregate identity read; the
identity divides k! by z_beta), and the Euler transform of a multiplicity
vector, extended multiplicatively over the exponents of a prime signature.
"""

from itertools import accumulate
from math import factorial, prod
from operator import mul

from .arith import BigCount, IntegrityError
from .oracle import DEFAULT_MAX_FACTORIZATIONS, OracleLimitError

__all__ = [
    "centralizer_order",
    "composition_weights",
    "compositions_of",
    "euler_transform",
    "mu_beta",
    "multiplicity_vector",
    "prefix_product",
]


def multiplicity_vector(parts) -> tuple[int, ...]:
    """Count how many parts equal each value 1..max(parts).

    Order of the input parts is irrelevant, so this accepts partitions and
    compositions alike.  The empty sequence maps to the empty vector.
    """
    if not parts:
        return ()
    beta = [0] * max(parts)
    for part in parts:
        beta[part - 1] += 1
    return tuple(beta)


def centralizer_order(beta) -> BigCount:
    """z_beta = prod_i i**beta_i * beta_i!, for a multiplicity vector beta.

    k! / z_beta is the number of permutations of k objects whose cycle type
    is beta, an integer; the empty vector gives 1.
    """
    z = 1
    for i, b in enumerate(beta, 1):
        if b:
            z *= i**b * factorial(b)
    return z


def euler_transform(beta, m_max: int) -> list[BigCount]:
    """Values nu_beta(1..m_max) of the Euler transform of beta.

    nu_beta(m) counts the partitions of m in which part i may appear in
    beta_i colors; equivalently it is the coefficient stream of
    prod_i (1 - x**i)**(-beta_i).  The recursion divides by m at each step
    and that division is always exact; a nonzero remainder raises
    :class:`IntegrityError` since it can only mean a bug.
    """
    if m_max < 1:
        raise ValueError(f"euler_transform requires m_max >= 1, got {m_max}")
    # gammas[m] = sum of d * beta_d over the divisors d of m, by a sieve over
    # the parts d <= m_max
    gammas = [0] * (m_max + 1)
    for d, b in zip(range(1, m_max + 1), beta):
        if b:
            for m in range(d, m_max + 1, d):
                gammas[m] += d * b
    nu: list[BigCount] = []
    for m in range(1, m_max + 1):
        # gamma(m) + sum over j = 1..m-1 of gamma(j) * nu(m - j)
        acc = gammas[m] + sum(map(mul, gammas[1:m], reversed(nu)))
        q, r = divmod(acc, m)
        if r:
            raise IntegrityError(
                f"euler transform of {beta} non-integral at m={m}: {acc}/{m}"
            )
        nu.append(q)
    return nu


def mu_beta(beta, sig: tuple[int, ...]) -> BigCount:
    """Multiplicative extension: product of nu_beta at the exponents of a
    nonincreasing prime signature `sig`.

    The unit's signature () gives the empty product, 1.
    """
    nu = euler_transform(beta, sig[0]) if sig else ()
    result = 1
    for e in sig:
        result *= nu[e - 1]
    return result


def compositions_of(k: int):
    """Yield all 2**(k-1) ordered sequences of positive parts summing to k.

    Ascending lexicographic order; the empty composition is the single
    composition of 0.  Iterative: the successor of (..., a, b) is
    (..., a + 1) followed by b - 1 parts equal to 1.
    """
    if k < 0:
        raise ValueError(f"compositions_of requires k >= 0, got {k}")
    comp = [1] * k
    yield tuple(comp)
    while len(comp) > 1:
        last = comp.pop()
        comp[-1] += 1
        comp += [1] * (last - 1)
        yield tuple(comp)


def prefix_product(comp) -> BigCount:
    """Product of the prefix sums of an ordered part sequence.

    The prefix sums of a composition of k are distinct integers in 1..k, so
    this product divides k!.
    """
    return prod(accumulate(comp))


def composition_weights(k: int) -> dict[tuple[int, ...], BigCount]:
    """{beta: U(beta)} over the multiplicity vectors beta of the partitions
    of k: U(beta) sums k! / prod(prefix sums) over the compositions of k with
    the parts of beta, so the values sum to k!.  A k past the oracle's budget
    of compositions (k > 20) raises :class:`OracleLimitError` before any work.
    """
    if k - 1 >= DEFAULT_MAX_FACTORIZATIONS.bit_length():  # 2**(k-1) > budget
        raise OracleLimitError(f"more than {DEFAULT_MAX_FACTORIZATIONS} compositions of {k}")
    k_fact = factorial(k)
    sums: dict = {}  # sorted parts -> [running sum], so each is hashed once
    for comp in compositions_of(k):
        parts = tuple(sorted(comp))
        acc = sums.get(parts)
        if acc is None:
            acc = sums[parts] = [0]
        acc[0] += k_fact // prefix_product(comp)
    return {multiplicity_vector(parts): acc[0] for parts, acc in sums.items()}
