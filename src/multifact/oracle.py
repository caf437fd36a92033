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
factorizations are counted as they are yielded.  The partitions are counted
once, at import: :data:`MAX_PARTITION_N` is the largest n with at most that
many partitions, so an n past it is refused at once.
"""

from collections import Counter
from math import isqrt

from .arith import BigCount

DEFAULT_MAX_FACTORIZATIONS = 1_000_000

__all__ = [
    "DEFAULT_MAX_FACTORIZATIONS",
    "MAX_PARTITION_N",
    "OracleLimitError",
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


def enumerate_factorizations(n: int):
    """Yield every unordered factorization of n into parts >= 2.

    Each factorization appears exactly once, as a nondecreasing tuple, in a
    deterministic order.  Raises :class:`OracleLimitError` past
    ``DEFAULT_MAX_FACTORIZATIONS`` factorizations, read as the walk runs,
    rather than running unbounded.
    """
    if n < 2:
        raise ValueError(f"enumerate_factorizations requires n >= 2, got {n}")
    count = 0
    for parts in _descend(n, 2, {}):
        count += 1
        if count > DEFAULT_MAX_FACTORIZATIONS:
            raise OracleLimitError(
                f"more than {DEFAULT_MAX_FACTORIZATIONS} factorizations of {n}")
        yield parts


def _classify(items) -> dict[tuple[int, int], BigCount]:
    """Count tuples by (number of parts, number of distinct part values)."""
    return dict(Counter((len(parts), len(set(parts))) for parts in items))


def profile(n: int) -> dict[tuple[int, int], BigCount]:
    """Factorization counts of n keyed by (number of parts, distinct part values)."""
    # the unit has one factorization, the empty one
    return _classify(enumerate_factorizations(n) if n != 1 else [()])


def _largest_n_within_budget() -> int:
    """The largest n with at most ``DEFAULT_MAX_FACTORIZATIONS`` partitions,
    by Euler's pentagonal recurrence p(m) = sum_{i>=1} (-1)**(i+1) * (p(m - g)
    + p(m - g - i)), g = i(3i-1)/2, each term 0 once its argument is < 0."""
    p = [1]
    while p[-1] <= DEFAULT_MAX_FACTORIZATIONS:
        m, total, i = len(p), 0, 1
        while (g := i * (3 * i - 1) // 2) <= m:
            term = p[m - g] + (p[m - g - i] if g + i <= m else 0)
            total += term if i & 1 else -term
            i += 1
        p.append(total)
    return len(p) - 2


# 60, since p(60) = 966,467 and p(61) = 1,121,505
MAX_PARTITION_N = _largest_n_within_budget()


def enumerate_partitions(n: int):
    """Yield every partition of n exactly once, as a nonincreasing tuple.

    Uses the ascending-composition algorithm of Kelleher and O'Sullivan.  An
    n past :data:`MAX_PARTITION_N` raises :class:`OracleLimitError` before the
    first partition.
    """
    if n < 0:
        raise ValueError(f"enumerate_partitions requires n >= 0, got {n}")
    if n > MAX_PARTITION_N:
        raise OracleLimitError(f"more than {DEFAULT_MAX_FACTORIZATIONS} partitions of {n}")
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
