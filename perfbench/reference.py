"""Exact reference values for the benchmark's gate, by routes independent of
multifact.

The table is keyed by (function, prime signature, indices) on the factor side
and by (function, n, indices) on the partition side.  Every entry comes from
code in this file alone, so a timed value that matches it is a value two
independent routes agree on:

- factor side: the number n is factored here (trial division, Miller-Rabin,
  Pollard rho) and the count is read from the (parts, distinct parts)
  profile of its signature, built by a knapsack over exponent vectors.  By
  prime independence the profile serves every n with that signature;
- partition side: dynamic programs over part sizes.
"""

from itertools import count, product
from math import gcd, isqrt

FACTOR_FUNCTIONS = frozenset({"f", "g", "f_k", "g_k", "F_k", "G_k", "h_l", "f_kl"})

_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1))]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # exact below 3.3e24


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard rho, Floyd cycle)."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def signature(n: int) -> tuple[int, ...]:
    """Prime exponents of n >= 1, sorted nonincreasing."""
    exponents: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
            exponents[p] = exponents.get(p, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return tuple(sorted(exponents.values(), reverse=True))


def factorization_profile(sig: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Factorizations of any n with prime signature `sig`, counted by
    (number of parts, number of distinct parts).

    A factorization is a multiset of nonzero exponent vectors summing to sig.
    The knapsack adds one vector type v at a time with multiplicity m >= 1,
    which adds m parts and one distinct part; states are sub-vectors of sig
    in mixed radix, visited from the top so that each update reads the
    table as it was before v was added.
    """
    strides = []
    size = 1
    for e in reversed(sig):
        strides.append(size)
        size *= e + 1
    strides.reverse()
    table: list[dict] = [{} for _ in range(size)]
    table[0][(0, 0)] = 1
    for v in product(*(range(e + 1) for e in sig)):
        if not any(v):
            continue
        step = sum(c * s for c, s in zip(v, strides))
        for t in reversed(list(product(*(range(e - c + 1) for e, c in zip(sig, v))))):
            top = step + sum(c * s for c, s in zip(t, strides))
            cur = table[top]
            reps = 1 + min(ti // vi for ti, vi in zip(t, v) if vi)
            for m in range(1, reps + 1):
                for (k, l), c in table[top - m * step].items():
                    cur[(k + m, l + 1)] = cur.get((k + m, l + 1), 0) + c
    return table[-1]


def factor_value(function: str, profile: dict, k, l) -> int:
    """One factor-side count read off a signature's (parts, distinct) profile."""
    if function == "f":
        return sum(profile.values())
    if function == "g":
        return sum(c for (a, b), c in profile.items() if a == b)
    if function == "f_k":
        return sum(c for (a, _), c in profile.items() if a == k)
    if function == "g_k":
        return profile.get((k, k), 0)
    if function == "F_k":  # pad with parts equal to 1
        return sum(c for (a, _), c in profile.items() if a <= k)
    if function == "G_k":  # a single part 1 may join
        return profile.get((k, k), 0) + profile.get((k - 1, k - 1), 0)
    if function == "h_l":
        return sum(c for (_, b), c in profile.items() if b == l)
    if function == "f_kl":
        return profile.get((k, l), 0)
    raise ValueError(f"not a factor-side function: {function}")


def distinct_value_table(n_max: int, l_max: int, j: int) -> list[list[int]]:
    """T[l][n]: partitions of n <= n_max into parts >= j with exactly l
    distinct part values (l <= l_max)."""
    table = [[0] * (n_max + 1) for _ in range(l_max + 1)]
    table[0][0] = 1
    for s in range(j, n_max + 1):
        for l in range(l_max, 0, -1):  # row l - 1 still lacks part size s
            prev, cur = table[l - 1], table[l]
            run = [0] * (n_max + 1)  # run[n] = sum over m >= 1 of prev[n - m*s]
            for n in range(s, n_max + 1):
                run[n] = prev[n - s] + run[n - s]
                cur[n] += run[n]
    return table


def parts_values_table(n_max: int, k_max: int, l_max: int) -> list:
    """T[l][k][n]: partitions of n with exactly k parts and l distinct values."""
    table = [[[0] * (n_max + 1) for _ in range(k_max + 1)] for _ in range(l_max + 1)]
    table[0][0][0] = 1
    for s in range(1, n_max + 1):
        for l in range(l_max, 0, -1):
            prev, cur = table[l - 1], table[l]
            # run[k][n] = sum over m >= 1 of prev[k - m][n - m*s]
            run = [[0] * (n_max + 1) for _ in range(k_max + 1)]
            for k in range(1, k_max + 1):
                for n in range(s, n_max + 1):
                    run[k][n] = prev[k - 1][n - s] + run[k - 1][n - s]
                    cur[k][n] += run[k][n]
    return table


class Reference:
    """Reference values for a set of calls, built when first asked for.

    `table` maps (function, signature or n, k, l, j) to the exact value; a
    test may plant an entry to check that a mismatch is caught.
    """

    def __init__(self, calls):
        self.table: dict[tuple, int] = {}
        self._profiles: dict[tuple, dict] = {}
        self._r_extent: dict[int, list[int]] = {}  # j -> [n_max, l_max]
        self._p_extent = [0, 0, 0]  # n_max, k_max, l_max
        for function, _, n, k, l, j in calls:
            if function in ("r_l", "r_lj"):
                extent = self._r_extent.setdefault(j or 1, [0, 0])
                extent[0] = max(extent[0], n)
                extent[1] = max(extent[1], l)
            elif function == "p_kl":
                self._p_extent = [max(a, b) for a, b in zip(self._p_extent, (n, k, l))]
        self._r_tables: dict[int, list] = {}
        self._p_table = None

    def key(self, function, n, k, l, j) -> tuple:
        arg = signature(n) if function in FACTOR_FUNCTIONS else n
        return (function, arg, k, l, j)

    def value(self, function, n, k=None, l=None, j=None) -> int:
        key = self.key(function, n, k, l, j)
        if key not in self.table:
            self.table[key] = self._compute(function, key[1], k, l, j)
        return self.table[key]

    def _compute(self, function, arg, k, l, j) -> int:
        if function in FACTOR_FUNCTIONS:
            if arg not in self._profiles:
                self._profiles[arg] = factorization_profile(arg)
            return factor_value(function, self._profiles[arg], k, l)
        if function == "p_kl":
            if self._p_table is None:
                self._p_table = parts_values_table(*self._p_extent)
            return self._p_table[l][k][arg]
        j = j or 1  # r_l is r_lj at j = 1
        if j not in self._r_tables:
            self._r_tables[j] = distinct_value_table(*self._r_extent[j], j)
        return self._r_tables[j][l][arg]
