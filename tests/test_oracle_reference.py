"""Pin the oracle's output to plain recursive references.

The factorization references are the oracle's enumeration and
classification as they stood before the per-call divisor table, the
d * d > m cut and the explicit stack: a fresh divisor scan at every node,
every divisor tried as the least part, nested generators, and one counter
update per item.  The oracle must yield the same tuples in the same order
and classify them into the same counts.  The partition reference is the
same recursion on sums, so the ascending walk's counts are checked against
an enumeration that shares none of its code.
"""

from collections import Counter
from math import isqrt

import pytest

from multifact import cli, oracle
from multifact.oracle import (
    enumerate_factorizations,
    enumerate_partitions,
    partition_profile,
    profile,
)


def reference_sorted_divisors(n):
    small = []
    large = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    large.reverse()
    return small + large


def reference_descend(m, lo):
    # nondecreasing parts: commit the least part first, then recurse
    for d in reference_sorted_divisors(m):
        if d < lo:
            continue
        if d == m:
            yield (d,)
        else:
            for rest in reference_descend(m // d, d):
                yield (d, *rest)


def reference_profile(n):
    f = 0
    g = 0
    f_k = Counter()
    g_k = Counter()
    f_kl = Counter()
    h_l = Counter()
    for parts in reference_descend(n, 2) if n != 1 else [()]:
        k = len(parts)
        l = len(set(parts))
        f += 1
        f_k[k] += 1
        f_kl[(k, l)] += 1
        h_l[l] += 1
        if k == l:
            g += 1
            g_k[k] += 1
    return f, g, dict(f_k), dict(g_k), dict(f_kl), dict(h_l)


def reference_partitions(m, least):
    # the additive twin of reference_descend: nondecreasing parts >= least,
    # the least part first, then recurse on the rest
    if m == 0:
        yield ()
    for d in range(least, m + 1):
        for rest in reference_partitions(m - d, d):
            yield (d, *rest)


def reference_partition_profile(n, least):
    counts = Counter()
    for parts in reference_partitions(n, least):
        counts[(len(parts), len(set(parts)))] += 1
    return dict(counts)


HIGHLY_COMPOSITE = (720720, 1081080, 1441440)


def test_order_matches_reference_small_n():
    for n in range(2, 3001):
        assert list(enumerate_factorizations(n)) == list(reference_descend(n, 2)), n


@pytest.mark.parametrize("n", HIGHLY_COMPOSITE)
def test_order_matches_reference_highly_composite(n):
    assert list(enumerate_factorizations(n)) == list(reference_descend(n, 2))


def classified(n):
    return [(len(parts), len(set(parts))) for parts in enumerate_factorizations(n)]


def test_cells_classify_each_tuple_in_order_small_n():
    for n in range(2, 3001):
        assert list(enumerate_factorizations(n, cells=True)) == classified(n), n


@pytest.mark.parametrize("n", HIGHLY_COMPOSITE)
def test_cells_classify_each_tuple_in_order_highly_composite(n):
    assert list(enumerate_factorizations(n, cells=True)) == classified(n)


@pytest.mark.parametrize("min_part", [3, 4, 7, 10**6])
def test_order_matches_reference_min_part(min_part):
    # the descent on a cofactor, with its least part as the floor
    n = 720720
    assert list(oracle._descend(n, min_part, {})) == list(reference_descend(n, min_part))


@pytest.mark.parametrize("m", [36, 720, 720720])
def test_order_matches_reference_every_floor(m):
    for lo in range(2, 51):
        assert list(oracle._descend(m, lo, {})) == list(reference_descend(m, lo)), lo


def profile_fields(prof):
    """The oracle's reads of one profile, as reference_profile lays them out:
    f, g, then f_k, g_k, f_kl and h_l as dicts without their zero entries."""
    read = cli._ORACLE_READS
    indices = range(max(k for k, _ in prof) + 2)

    def nonzero(items):
        return {key: value for key, value in items if value}

    return (
        read["f"](prof, None, None),
        read["g"](prof, None, None),
        nonzero((k, read["f_k"](prof, k, None)) for k in indices),
        nonzero((k, read["g_k"](prof, k, None)) for k in indices),
        nonzero(((k, l), read["f_kl"](prof, k, l)) for k in indices for l in indices),
        nonzero((l, read["h_l"](prof, None, l)) for l in indices),
    )


def test_profile_matches_reference():
    for n in [1, *range(2, 3001), 1441440]:
        assert profile_fields(profile(n)) == reference_profile(n), n


def test_partition_profile_matches_reference():
    for n in range(0, 41):
        for least in range(1, n + 2):
            assert partition_profile(n, least) == reference_partition_profile(n, least), (n, least)


def test_r_lj_oracle_route_matches_min_filter():
    route = cli._PARTITION_ROUTES[("r_lj", "oracle")]
    for n in range(0, 31):
        partitions = list(enumerate_partitions(n))
        for l in range(0, 5):
            for j in range(0, 5):
                expected = sum(
                    1 for parts in partitions
                    if len(set(parts)) == l and (not parts or min(parts) >= j)
                )
                assert route(n, None, l, j) == expected, (n, l, j)


def test_one_divisor_scan_per_cofactor_per_call(monkeypatch):
    n = 720720
    tau = len(reference_sorted_divisors(n))
    assert tau == 240
    scans = []
    scan = oracle._sorted_divisors

    def counted(m):
        scans.append(m)
        return scan(m)

    monkeypatch.setattr(oracle, "_sorted_divisors", counted)
    for _ in enumerate_factorizations(n):
        pass
    first = len(scans)
    assert 0 < first <= tau
    assert len(set(scans)) == first
    # nothing carries over: a second call scans the same cofactors again
    for _ in enumerate_factorizations(n):
        pass
    assert len(scans) == 2 * first
