"""Brute-force ground truth by exhaustive enumeration.

Deliberately naive and kept independent of the formula and recursion modules:
everything here works from first principles (divisor scans, part-by-part
descent) so that agreement with the fast routes is meaningful evidence.

:func:`profile` and :func:`partition_profile` return one shape: a dict from
(number of parts, number of distinct part values) to a count, over the
factorizations of n and the partitions of n.  Every count the oracle checks
is a sum of cells of that dict, and the factorizations of 2**n give the same
dict as the partitions of n.

Two cuts keep the enumeration to the work whose result it uses, and neither
outlives a call.  Each call of :func:`enumerate_factorizations` scans the
divisors of a cofactor at most once, in a dict local to that call; every
cofactor divides n, so that is at most one trial-division scan per divisor
of n.  And the descent stops at the first least part d with d * d > m: the
cofactor m // d is then smaller than d, so no nondecreasing completion
exists, and (m,) itself is yielded last.

Both enumerations stop at ``DEFAULT_MAX_FACTORIZATIONS`` items.  The
factorizations are counted as they are yielded, and the partitions of n are
counted before the first one is, so an n with too many partitions is refused
at once.
"""

from collections import Counter
from math import comb, isqrt

from .arith import BigCount

DEFAULT_MAX_FACTORIZATIONS = 1_000_000

__all__ = [
    "DEFAULT_MAX_FACTORIZATIONS",
    "OracleLimitError",
    "colored_partition_count",
    "enumerate_factorizations",
    "enumerate_partitions",
    "partition_profile",
    "profile",
]

class OracleLimitError(RuntimeError):
    """A walk would pass ``DEFAULT_MAX_FACTORIZATIONS`` items: the oracle's, or
    the partitions or compositions of k that partition-sum and fedorov sum over."""


def _sorted_divisors(n: int) -> list[int]:
    small = []
    large = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    large.reverse()
    return small + large


def _descend(m: int, lo: int, divisors: dict[int, list[int]]):
    # nondecreasing parts: commit the least part d first, then recurse on the
    # cofactor m // d; a d past sqrt(m) leaves a cofactor below d, so stop
    # there and close with the one-part factorization (m,)
    if m not in divisors:
        divisors[m] = _sorted_divisors(m)
    for d in divisors[m]:
        if d < lo:
            continue
        if d * d > m:
            break
        for rest in _descend(m // d, d, divisors):
            yield (d, *rest)
    if m >= lo:
        yield (m,)


def enumerate_factorizations(
    n: int, min_part: int = 2, max_count: int = DEFAULT_MAX_FACTORIZATIONS
):
    """Yield every unordered factorization of n into parts >= min_part.

    Each factorization appears exactly once, as a nondecreasing tuple, in a
    deterministic order.  Raises :class:`OracleLimitError` past ``max_count``
    factorizations rather than running unbounded.
    """
    if n < 2:
        raise ValueError(f"enumerate_factorizations requires n >= 2, got {n}")
    if min_part < 2:
        raise ValueError(f"min_part must be >= 2, got {min_part}")
    count = 0
    for parts in _descend(n, min_part, {}):
        count += 1
        if count > max_count:
            raise OracleLimitError(
                f"more than {max_count} factorizations of {n}")
        yield parts


def _classify(items) -> dict[tuple[int, int], BigCount]:
    """Count tuples by (number of parts, number of distinct part values)."""
    return dict(Counter((len(parts), len(set(parts))) for parts in items))


def profile(n: int) -> dict[tuple[int, int], BigCount]:
    """Factorization counts of n keyed by (number of parts, distinct part values)."""
    # the unit has one factorization, the empty one
    return _classify(enumerate_factorizations(n) if n != 1 else [()])


def _refuse_over_partition_budget(n: int) -> None:
    """Raise :class:`OracleLimitError` if n has more than
    ``DEFAULT_MAX_FACTORIZATIONS`` partitions.

    Row m of the table counts the partitions of m into parts <= j, for
    j = 0..m.  Rows are added for m = 1, 2, ... until m reaches n or the row's
    total p(m) passes the budget; p never falls as m grows, so p(n) >= p(m)
    then.  That stops at m = 61 for any n, since p(61) = 1,121,505.
    """
    rows = [[1]]
    for m in range(1, n + 1):
        row = [0]
        for j in range(1, m + 1):
            # parts <= j - 1, plus those with a part j and the rest m - j in
            # parts <= j
            row.append(row[j - 1] + rows[m - j][min(j, m - j)])
        if row[m] > DEFAULT_MAX_FACTORIZATIONS:
            raise OracleLimitError(
                f"more than {DEFAULT_MAX_FACTORIZATIONS} partitions of {n}"
            )
        rows.append(row)


def enumerate_partitions(n: int):
    """Yield every partition of n exactly once, as a nonincreasing tuple.

    Uses the ascending-composition algorithm, a different code path from the
    descending recursive iterator in :mod:`multifact.partitions`.  An n with
    more than ``DEFAULT_MAX_FACTORIZATIONS`` partitions (n > 60) raises
    :class:`OracleLimitError` before the first partition.
    """
    if n < 0:
        raise ValueError(f"enumerate_partitions requires n >= 0, got {n}")
    _refuse_over_partition_budget(n)
    if n == 0:
        yield ()
        return
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        last = k + 1
        while x <= y:
            a[k] = x
            a[last] = y
            yield tuple(a[last::-1])
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield tuple(a[k::-1])


def partition_profile(n: int) -> dict[tuple[int, int], BigCount]:
    """Partition counts of n keyed by (number of parts, distinct part values)."""
    return _classify(enumerate_partitions(n))


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
