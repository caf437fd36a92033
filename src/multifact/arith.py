"""Exact arithmetic base layer: prime factorization, prime exponents, the
checked exact division and the scalar types shared by every counting routine.

``factorize`` uses no table that grows with n.  One gcd with the product of
the primes below 2**10 finds which of them divide n, and only those are
divided out.  The cofactor goes to a deterministic Miller-Rabin test that
takes only as many prime bases as its size needs (the psi_t bounds of
Jaeschke 1993), and to Pollard-Brent rho when composite.

Counting values are plain Python ints, arbitrary precision from the start
(Bell-number growth overflows 64 bits near n = 25).  The partition-sum and
composition-sum routes also run in ints: each weight is scaled by k! and the
total is divided by k! once, at the end.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from math import gcd, isqrt, prod

BigCount = int

# The largest n that factorize accepts: its Miller-Rabin bases are exact only
# below 341,550,071,728,321 (Jaeschke 1993).
MAX_N = 10**14

__all__ = [
    "BigCount",
    "FactoredInt",
    "IntegrityError",
    "MAX_N",
    "factorize",
    "first_primes",
    "kappa",
    "prime_signature",
    "settle",
]


class IntegrityError(RuntimeError):
    """A sum or division that must be exact in integers was not.

    Firing signals an implementation bug, never bad user input, so this is a
    mandatory runtime check rather than a debug-only assert.
    """


def settle(memo: dict, key: tuple, total: int, divisor: int, route: str) -> int:
    """Store and return total // divisor as memo[key], the one exact division
    that ends every memoized counting route.

    A remainder raises :class:`IntegrityError` naming the route and the key,
    and stores nothing, so the same call raises again.
    """
    q, r = divmod(total, divisor)
    if r:
        raise IntegrityError(f"{route}{key}: sum {total} not divisible by {divisor}")
    memo[key] = q
    return q


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer together with its prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with primes strictly
    increasing and every exponent >= 1; the unit 1 has an empty tuple.
    ``signature`` (the exponents sorted nonincreasing) and ``big_omega``
    (their sum) are computed once here, since the counting core reads them on
    every call.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    signature: tuple[int, ...] = field(init=False, compare=False, repr=False)
    big_omega: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"value must be >= 1, got {self.value}")
        prod_check = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError(f"factors must be strictly increasing: {self.factors}")
            if e < 1:
                raise ValueError(f"exponents must be >= 1: {self.factors}")
            last = p
            prod_check *= p**e
        if prod_check != self.value:
            raise ValueError(f"factors {self.factors} do not multiply to {self.value}")
        exponents = [e for _, e in self.factors]
        object.__setattr__(self, "signature", tuple(sorted(exponents, reverse=True)))
        object.__setattr__(self, "big_omega", sum(exponents))

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.factors)


# --------------------------------------------------------------------------
# factorization
#
# Trial division covers the primes below _TRIAL_BOUND only, and by one gcd:
# g = gcd(n, _TRIAL_PRODUCT) is the product of those of them that divide n,
# so only the primes of g are divided out, and the walk over _TRIAL_PRIMES
# stops once p * p > g, as what is left of g is then one prime.  Whatever is
# left of n has no prime factor below the bound, so it is prime when it is
# below the bound squared, and otherwise goes to Miller-Rabin and, if
# composite, to Pollard-Brent rho.  Nothing here grows with n.

_TRIAL_BOUND = 1 << 10


def _primes_below(bound: int) -> tuple[int, ...]:
    """The primes below bound, by one sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(p for p in range(bound) if sieve[p])


_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)

# Miller-Rabin with the first t of these bases is exact for every m < psi_t,
# _PSI[t - 1], the least strong pseudoprime to all of them (Jaeschke 1993;
# OEIS A014233).  So m takes bisect_right(_PSI, m) + 1 bases: 5 near 10**12,
# and all 7 only from psi_6 = 3,474,749,660,383 on.  psi_7 is past MAX_N.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321)

# Pollard-Brent multiplies this many differences mod n per gcd
_RHO_BATCH = 64


def _is_prime(m: int) -> bool:
    """Primality of m > 1 with no prime factor below _TRIAL_BOUND."""
    if m < _TRIAL_BOUND * _TRIAL_BOUND:
        return True
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES[: bisect_right(_PSI, m) + 1]:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho_factor(m: int) -> int:
    """A proper divisor > 1 of the composite m, which has no prime factor
    below _TRIAL_BOUND (Pollard-Brent rho, Brent 1980).

    The polynomials x**2 + c are tried for c = 1, 2, ... from the same start,
    so the divisor found depends on m alone."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g


def _large_prime_factors(m: int) -> list[int]:
    """The prime factors, with multiplicity, of m > 1, which has no prime
    factor below _TRIAL_BOUND."""
    if _is_prime(m):
        return [m]
    d = _rho_factor(m)
    return _large_prime_factors(d) + _large_prime_factors(m // d)


def factorize(n: int) -> FactoredInt:
    """Canonical prime factorization; deterministic.

    One gcd with the product of the primes below 2**10 picks out those that
    divide n, and only they are divided out; then Miller-Rabin, with as many
    bases as the cofactor's size needs, and Pollard-Brent rho on the
    cofactor, so no table grows with n.  Accepts 1 <= n <= :data:`MAX_N`,
    the range in which the Miller-Rabin bases are exact; anything else is a
    ``ValueError``.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > MAX_N:
        raise ValueError(f"factorize requires n <= {MAX_N}, got {n}")
    rest = n
    factors = []
    g = gcd(n, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if p * p > g:
            # g is squarefree with no prime factor below p: it is one prime
            p = g
        if g % p == 0:
            g //= p
            e = kappa(p, rest)
            rest //= p**e
            factors.append((p, e))
    if rest > 1:
        factors += sorted(Counter(_large_prime_factors(rest)).items())
    return FactoredInt(n, tuple(factors))


def prime_signature(fi: FactoredInt) -> tuple[int, ...]:
    """Exponent multiset, sorted nonincreasing.

    Every counting function in this package depends on n only through this
    signature, which is why it serves as the memoization key everywhere.
    """
    return fi.signature


def first_primes(count: int) -> list[int]:
    """The `count` smallest primes.

    The primes below 2**10 come from the trial-division list; past them, an
    odd m prime to every one of them (one gcd with their product) is prime
    when `_is_prime` says so.
    """
    primes = list(_TRIAL_PRIMES[:count])
    m = _TRIAL_BOUND + 1
    while len(primes) < count:
        if gcd(m, _TRIAL_PRODUCT) == 1 and _is_prime(m):
            primes.append(m)
        m += 2
    return primes


def kappa(pi: int, n: int) -> int:
    """Largest m such that pi**m divides n (pi prime, n >= 1)."""
    if pi < 2:
        raise ValueError(f"kappa requires pi >= 2, got {pi}")
    if n < 1:
        raise ValueError(f"kappa requires n >= 1, got {n}")
    m = 0
    while n % pi == 0:
        n //= pi
        m += 1
    return m
