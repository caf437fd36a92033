"""Brute-force ground truth by exhaustive enumeration.

Deliberately naive and kept independent of the formula and recursion modules:
everything here works from first principles (divisor scans, part-by-part
walks) so that agreement with the fast routes is meaningful evidence.  Each
walk visits every item it counts once; nothing is memoized and no range of
items is counted by a formula.

:func:`profile` and :func:`partition_profile` return one shape: a dict from
(number of parts, number of distinct part values) to a count, over the
factorizations of n and the partitions of n.  Every count the oracle checks
is a sum of cells of that dict, and the factorizations of 2**n give the same
dict as the partitions of n.

The factorizations come from a walk on an explicit stack that commits the
least part d first and then walks the cofactor m // d with parts >= d.
Beside the committed parts it keeps each prefix's number of distinct values:
a new part adds a value unless it equals the part committed last.  So the
walk can hand over each factorization either as its tuple or as its profile
cell (number of parts, distinct values), which :func:`profile` counts
without building a tuple or a set.  Two cuts keep the walk to the work whose
result it uses, and neither outlives a call.  Each call of
:func:`enumerate_factorizations` scans the divisors of a cofactor at most
once, in a dict local to that call; every cofactor divides n, so that is at
most one trial-division scan per divisor of n.  And the walk stops at the
first least part d with d * d > m: the cofactor m // d is then smaller than
d, so no nondecreasing completion exists, and (m,) itself comes last.

The partitions come from the ascending walk of Kelleher and O'Sullivan
("Generating all partitions: a comparison of two encodings", 2009), which
fixes a prefix of ascending parts and then closes it with every tail of one
or two parts.  :func:`enumerate_partitions` builds a tuple per partition;
:func:`partition_profile` builds none.  It keeps the number of distinct
values of each prefix length, updated only where the walk changed the
prefix, and adds each partition to its cell from the prefix's counts and the
tail's parts.

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
    """The divisors of n >= 2 that can be parts, so all but 1, ascending."""
    small = []
    large = [n]
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    large.reverse()
    return small + large


def _descend(m: int, lo: int, divisors: dict[int, list[int]], cells: bool = False):
    # nondecreasing parts: commit the least part d first, then walk the
    # cofactor m // d with parts >= d; a d past sqrt(m) leaves a cofactor below
    # d, so stop there and close with the one-part factorization (m,).  Each
    # frame is (cofactor, its least part, the distinct values of the parts
    # committed above it, its divisors not yet tried).  Below the root the
    # least part is the last committed one, so a new part adds a value unless
    # it equals it; a closing m always does, since a frame is pushed only for
    # a cofactor c >= d * d > d.  The cells are those of a whole walk from
    # lo = 1, which no part equals.
    def frame(c: int, least: int, values: int):
        if c not in divisors:
            divisors[c] = _sorted_divisors(c)
        return c, least, values, iter(divisors[c])

    parts = []  # the least part committed above each frame but the first
    frames = [frame(m, lo, 0)]
    while frames:
        m, least, values, tried = top = frames[-1]
        for d in tried:
            if d < least:
                continue
            if d * d <= m:
                c = m // d
                if d * d > c:
                    # the walk of c with parts >= d would yield (c,) alone
                    if cells:
                        yield len(parts) + 2, values + (d != least) + (c != d)
                    else:
                        yield (*parts, d, c)
                    continue
                parts.append(d)
                frames.append(frame(c, d, values + (d != least)))
            break
        if frames[-1] is top:
            # the divisors of m are spent or past sqrt(m)
            frames.pop()
            if m >= least:
                if cells:
                    yield len(parts) + 1, values + 1
                else:
                    yield (*parts, m)
            if frames:
                parts.pop()


def enumerate_factorizations(n: int, *, cells: bool = False):
    """Yield every unordered factorization of n into parts >= 2.

    Each factorization appears exactly once, as a nondecreasing tuple, in a
    deterministic order.  With ``cells=True`` each one is yielded instead as
    its profile cell (number of parts, distinct part values), in the same
    order, read off the walk's per-prefix distinct counts.  Raises
    :class:`OracleLimitError` past ``DEFAULT_MAX_FACTORIZATIONS``
    factorizations, read as the walk runs, rather than running unbounded.
    """
    if n < 2:
        raise ValueError(f"enumerate_factorizations requires n >= 2, got {n}")
    count = 0
    for item in _descend(n, 1, {}, cells):
        count += 1
        if count > DEFAULT_MAX_FACTORIZATIONS:
            raise OracleLimitError(
                f"more than {DEFAULT_MAX_FACTORIZATIONS} factorizations of {n}")
        yield item


def profile(n: int) -> dict[tuple[int, int], BigCount]:
    """Factorization counts of n keyed by (number of parts, distinct part
    values): the cells that ``enumerate_factorizations(n, cells=True)``
    yields, counted.  The unit has one factorization, the empty one."""
    if n < 1:
        raise ValueError(f"profile requires n >= 1, got {n}")
    if n == 1:
        return {(0, 0): 1}
    return dict(Counter(enumerate_factorizations(n, cells=True)))


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


def _ascending(n: int, least: int):
    """The ascending walk of Kelleher and O'Sullivan over the partitions of
    n >= 1 into parts >= least, one step per fixed prefix.

    Yields (a, i, k, x, s): the parts a[:k] are fixed and ascending, and only
    a[i:k] changed since the last step; the partitions with that prefix are
    a[:k] followed by (x', s - x') for each x <= x' <= s // 2, then by (s,).
    Here x >= a[k - 1] and s > a[k - 1]: a partition whose two largest parts
    are equal ends in a two-part tail.  a[n] is never written, so a[k - 1]
    reads 0, below every part, at k = 0.
    """
    a = [0] * (n + 1)
    a[0] = least - 1
    k = 1
    y = n - least
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        i = k
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        s = x + y
        yield a, i, k, x, s
        a[k] = s
        y = s - 1


def _check_partition_n(n: int, caller: str) -> None:
    if n < 0:
        raise ValueError(f"{caller} requires n >= 0, got {n}")
    if n > MAX_PARTITION_N:
        raise OracleLimitError(f"more than {DEFAULT_MAX_FACTORIZATIONS} partitions of {n}")


def enumerate_partitions(n: int):
    """Yield every partition of n exactly once, as a nonincreasing tuple.

    Uses the ascending-composition algorithm of Kelleher and O'Sullivan.  An
    n past :data:`MAX_PARTITION_N` raises :class:`OracleLimitError` before the
    first partition.
    """
    _check_partition_n(n, "enumerate_partitions")
    if n == 0:
        yield ()
        return
    for a, _, k, x, s in _ascending(n, 1):
        rest = tuple(a[k - 1::-1]) if k else ()
        for x in range(x, s // 2 + 1):
            yield (s - x, x) + rest
        yield (s,) + rest


def partition_profile(n: int, least: int = 1) -> dict[tuple[int, int], BigCount]:
    """Counts of the partitions of n into parts >= least, keyed by (number of
    parts, distinct part values).

    Each partition adds one to its cell, read off the walk's state: the
    prefix a[:k] has k parts and distinct[k] values, and each part of a tail
    adds a value unless it repeats a[k - 1] or the tail's other part.  An n of
    0 has one partition, the empty one, at every least.
    """
    _check_partition_n(n, "partition_profile")
    if n == 0:
        return {(0, 0): 1}
    least = max(least, 1)
    if least > n:
        return {}
    grid = [[0] * (n + 1) for _ in range(n + 2)]
    distinct = [0] * (n + 1)  # distinct[i]: distinct values in a[:i]
    for a, i, k, x, s in _ascending(n, least):
        for j in range(i, k):
            distinct[j + 1] = distinct[j] + (a[j] != a[j - 1])
        v = distinct[k]
        last = a[k - 1]
        pairs = grid[k + 2]
        for x in range(x, s // 2 + 1):
            pairs[v + (x != last) + (x + x != s)] += 1
        grid[k + 1][v + 1] += 1
    return {(parts, values): count
            for parts, row in enumerate(grid)
            for values, count in enumerate(row) if count}
