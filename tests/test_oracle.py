"""Tests for the brute-force enumeration oracle."""

import pytest

from multifact import cli, oracle
from multifact.oracle import (
    DEFAULT_MAX_FACTORIZATIONS,
    OracleLimitError,
    enumerate_factorizations,
    enumerate_partitions,
    partition_profile,
    profile,
)
from multifact.partitions import euler_transform, multiplicity_vector
from references import colored_partition_count

READS = cli._ORACLE_READS


def read(function, prof, k=None, l=None):
    return READS[function](prof, k, l)


# the complete factorization list for 36, as multisets
FACTORIZATIONS_36 = {
    (36,),
    (2, 18),
    (4, 9),
    (3, 12),
    (6, 6),
    (2, 2, 9),
    (2, 3, 6),
    (3, 3, 4),
    (2, 2, 3, 3),
}
CELLS_36 = {(len(parts), len(set(parts))) for parts in FACTORIZATIONS_36}


def test_enumerate_36_exact_set():
    found = list(enumerate_factorizations(36))
    assert len(found) == 9
    assert set(found) == FACTORIZATIONS_36


def test_enumerate_prime():
    assert list(enumerate_factorizations(97)) == [(97,)]


def test_enumerate_12():
    assert len(list(enumerate_factorizations(12))) == 4


def test_enumerate_rejects_unit():
    with pytest.raises(ValueError):
        list(enumerate_factorizations(1))


def test_enumerate_respects_budget(monkeypatch):
    # exactly the budget's items come out; the next pull raises
    monkeypatch.setattr(oracle, "DEFAULT_MAX_FACTORIZATIONS", 5)
    items = enumerate_factorizations(36)
    handed = [next(items) for _ in range(5)]
    assert len(set(handed)) == 5 and set(handed) <= FACTORIZATIONS_36
    # the message names the budget and n only: the CLI cannot raise the budget
    with pytest.raises(OracleLimitError, match="^more than 5 factorizations of 36$"):
        next(items)


def test_enumerate_cells_respects_the_same_budget(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_MAX_FACTORIZATIONS", 5)
    items = enumerate_factorizations(36, cells=True)
    for _ in range(5):
        assert next(items) in CELLS_36
    with pytest.raises(OracleLimitError, match="^more than 5 factorizations of 36$"):
        next(items)


@pytest.mark.parametrize("call, message", [
    (lambda: profile(0), "profile requires n >= 1, got 0"),
    (lambda: partition_profile(-1), "partition_profile requires n >= 0, got -1"),
    (lambda: next(enumerate_partitions(-1)), "enumerate_partitions requires n >= 0, got -1"),
])
def test_a_bad_n_is_refused_in_the_name_of_the_function_called(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_enumerate_min_part():
    # the descent below a least part d walks the cofactor with parts >= d
    assert list(oracle._descend(36, 4, {})) == [(4, 9), (6, 6), (36,)]


def test_profile_36():
    prof = profile(36)
    assert read("f", prof) == 9
    assert read("g", prof) == 5
    assert read("f_k", prof, k=2) == 4
    assert read("g_k", prof, k=2) == 3
    assert [read("h_l", prof, l=l) for l in range(5)] == [0, 2, 6, 1, 0]
    assert prof[(3, 2)] == read("f_kl", prof, 3, 2) == 2
    assert prof[(2, 2)] == read("f_kl", prof, 2, 2) == 3


def test_profile_h2_members():
    two_valued = [
        parts for parts in enumerate_factorizations(36) if len(set(parts)) == 2
    ]
    assert set(two_valued) == {
        (2, 18), (4, 9), (3, 12), (2, 2, 9), (3, 3, 4), (2, 2, 3, 3),
    }
    assert len(two_valued) == 6


def test_profile_prime_square():
    prof = profile(49)
    assert read("f", prof) == 2
    assert [read("f_k", prof, k=k) for k in range(4)] == [0, 1, 1, 0]
    assert read("g_k", prof, k=2) == 0


def test_profile_derived_F_and_G():
    prof = profile(36)
    assert read("F_k", prof, k=2) == 5  # f_1 + f_2
    assert read("G_k", prof, k=2) == 4  # g_2 + g_1
    assert read("G_k", prof, k=1) == 1
    # F stabilizes at f for k >= big_omega
    assert read("F_k", prof, k=4) == read("F_k", prof, k=9) == read("f", prof)


@pytest.mark.parametrize("n", [2, 24, 36, 96, 720, 1024])
def test_no_duplicates_and_products(n):
    seen = set()
    for parts in enumerate_factorizations(n):
        assert parts not in seen
        seen.add(parts)
        value = 1
        for part in parts:
            assert part >= 2
            value *= part
        assert value == n
        assert all(parts[i] <= parts[i + 1] for i in range(len(parts) - 1))


def test_profile_internal_identities_sweep():
    for n in range(2, 5001):
        prof = profile(n)
        top = max(k for k, _ in prof) + 1
        assert read("f", prof) == sum(read("f_k", prof, k=k) for k in range(top))
        assert read("g", prof) == sum(read("g_k", prof, k=k) for k in range(top))
        for i in range(top):
            assert read("h_l", prof, l=i) == sum(read("f_kl", prof, k, i) for k in range(top))
            assert read("g_k", prof, k=i) == read("f_kl", prof, i, i)
            assert read("f_k", prof, k=i) == sum(read("f_kl", prof, i, l) for l in range(top))


def test_profiles_invariant_under_prime_relabeling():
    pairs = [(12, 75), (36, 225), (24, 375), (30, 1001), (48, 1875)]
    for a, b in pairs:
        pa, pb = profile(a), profile(b)
        assert pa == pb
        for function in cli.FACTOR_FUNCTIONS:
            for k in range(6):
                assert READS[function](pa, k, k) == READS[function](pb, k, k)


def test_factorizations_of_a_power_of_two_are_the_partitions_of_its_exponent():
    # two enumerations, one by divisor descent and one by ascending
    # compositions, must give the same (parts, distinct values) counts
    for n in range(0, 31):
        assert profile(2**n) == partition_profile(n), n


def test_enumerate_partitions_counts():
    assert len(list(enumerate_partitions(5))) == 7
    assert list(enumerate_partitions(0)) == [()]
    assert len(list(enumerate_partitions(10))) == 42


@pytest.mark.parametrize("n", [61, 200, 10**7])
def test_enumerate_partitions_refuses_past_the_budget_before_the_first_item(
        n, within_a_second):
    # p(61) = 1,121,505; counting stops there whatever n is
    with pytest.raises(OracleLimitError,
                       match=f"^more than {DEFAULT_MAX_FACTORIZATIONS} partitions of {n}$"):
        next(enumerate_partitions(n))
    with pytest.raises(OracleLimitError):
        partition_profile(n)


def test_enumerate_partitions_yields_within_the_budget(within_a_second):
    # p(60) = 966,467 is the last count within the budget
    assert next(enumerate_partitions(60)) == (1,) * 60


def test_enumerate_partitions_valid_and_unique():
    for n in range(0, 20):
        seen = set()
        for p in enumerate_partitions(n):
            assert sum(p) == n
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
            seen.add(p)
        assert len(seen) == len(list(enumerate_partitions(n)))


def test_partition_profile_7():
    pp = partition_profile(7)
    assert pp[(3, 2)] == 3  # (5,1,1), (3,3,1), (3,2,2)
    assert sum(pp.values()) == 15


def test_colored_partition_count_examples():
    assert colored_partition_count((0, 2, 1), 7) == 3
    assert colored_partition_count((1,), 9) == 1
    assert colored_partition_count((2,), 2) == 3


def test_colored_count_restricted_parts_example():
    # parts 2 (two colors) and 3 (one color) making 7: three colorings
    assert colored_partition_count((0, 2, 1), 7) == 3


def test_colored_count_matches_euler_transform():
    for k in range(0, 9):
        for p in enumerate_partitions(k):
            beta = multiplicity_vector(p)
            values = euler_transform(beta, 25)
            for m in range(1, 26):
                assert colored_partition_count(beta, m) == values[m - 1]
