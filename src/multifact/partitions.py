"""Partition and composition combinatorics of the part-count index k.

Provides the iterator over compositions, the weights attached to partitions
and compositions (as the integer denominators z_beta and prefix products that
the counting routes divide k! by), and the Euler transform of a multiplicity
vector together with its multiplicative extension to factored integers.
"""

from itertools import accumulate
from math import factorial, prod
from operator import mul

from .arith import BigCount, FactoredInt, IntegrityError

__all__ = [
    "centralizer_order",
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


def mu_beta(beta, fi: FactoredInt) -> BigCount:
    """Multiplicative extension: product of nu_beta at the prime exponents of fi.

    The unit 1 gives the empty product, 1.
    """
    if not fi.factors:
        return 1
    nu = euler_transform(beta, fi.signature[0])
    result = 1
    for _, e in fi.factors:
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

