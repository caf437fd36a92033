"""Tests for partition-side counts, Stirling/Bell numbers, and identities."""

import pytest

from multifact import counting, oracle, partition_counts
from multifact.arith import IntegrityError, prime_power, primorial
from multifact.partition_counts import (
    IDENTITIES,
    bell,
    check_identity,
    p_kl,
    r_l,
    r_lj,
    stirling2,
)


def test_p_kl_values():
    assert p_kl(7, 3, 2) == 3  # (5,1,1), (3,3,1), (3,2,2)
    assert p_kl(0, 0, 0) == 1
    assert p_kl(5, 5, 1) == 1  # all ones
    assert p_kl(7, 3, 3) == 1  # (4,2,1)
    assert p_kl(3, 5, 1) == 0  # more parts than n
    assert p_kl(-1, 0, 0) == 0


def test_r_l_values():
    assert r_l(5, 2) == 5  # (4,1), (3,2), (3,1,1), (2,2,1), (2,1,1,1)
    assert r_l(5, 1) == 2  # (5), (1,1,1,1,1): one per divisor
    assert r_l(0, 0) == 1
    assert r_l(6, 1) == 4  # divisors of 6
    assert r_l(5, 0) == 0


def test_r_lj_values():
    assert r_lj(7, 2, 2) == 3  # (5,2), (4,3), (3,2,2)
    assert r_lj(5, 3, 2) == 0  # j*l > n
    assert r_lj(10, 4, 2) == 0  # j*l < n but 2+3+4+5 > 10
    assert r_lj(5, 2, 1) == 5
    assert r_lj(0, 0, 1) == 1
    assert r_lj(0, 1, 1) == 0
    with pytest.raises(ValueError):
        r_lj(5, 2, 0)


def test_stirling_values():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(3, 5) == 0
    assert [stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]


def test_stirling_against_oracle_primorials():
    # k-block set partitions match k-part factorizations of squarefree numbers
    assert oracle.profile(30).g_k[2] == stirling2(3, 2) == 3
    assert oracle.profile(210).f_k[2] == stirling2(4, 2) == 7


def test_bell_values():
    assert bell(3) == 5
    assert bell(0) == 1
    assert bell(4) == 15
    assert [bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert bell(3) == oracle.profile(30).f
    assert bell(4) == oracle.profile(210).f


def test_bell_overflows_64_bits_fine():
    assert bell(30) == 846749014511809332450147  # needs > 64 bits


def test_p_kl_matches_partition_enumeration():
    for n in range(0, 31):
        pp = oracle.partition_profile(n)
        for k in range(0, n + 2):
            for l in range(0, k + 2):
                expected = pp.get((k, l), 0)
                if n == 0 and k == 0 and l == 0:
                    expected = 1
                assert p_kl(n, k, l) == expected


def test_r_l_matches_partition_enumeration():
    for n in range(0, 41):
        pp = oracle.partition_profile(n)
        for l in range(0, 10):
            expected = sum(v for (_, ll), v in pp.items() if ll == l)
            if n == 0 and l == 0:
                expected = 1
            assert r_l(n, l) == expected


def test_r_lj_matches_r_l_and_floor_filter():
    for n in range(0, 61):
        for l in range(0, 9):
            assert r_lj(n, l, 1) == r_l(n, l)
    for n in range(1, 26):
        for j in range(1, 6):
            for l in range(1, 6):
                expected = sum(
                    1
                    for p in oracle.enumerate_partitions(n)
                    if len(set(p)) == l and min(p) >= j
                )
                assert r_lj(n, l, j) == expected


def test_r_l_sums_to_partition_count():
    for n in range(1, 41):
        total = sum(r_l(n, l) for l in range(1, n + 1))
        assert total == len(list(oracle.enumerate_partitions(n)))


def test_p_kl_sums_to_fixed_part_count():
    for n in range(1, 31):
        pp = oracle.partition_profile(n)
        for k in range(1, n + 1):
            expected = sum(v for (kk, _), v in pp.items() if kk == k)
            assert sum(p_kl(n, k, l) for l in range(1, k + 1)) == expected


def test_specialization_to_prime_powers():
    for n in range(1, 26):
        for pi in (2, 3):
            fi = prime_power(pi, n)
            for l in range(1, 8):
                assert r_l(n, l) == counting.h_l(fi, l)
            for k in range(1, n + 1):
                for l in range(1, min(k, 7) + 1):
                    assert p_kl(n, k, l) == counting.f_kl(fi, k, l)


def test_primorial_evaluations():
    for n in range(0, 9):
        P = primorial(n)
        for k in range(0, n + 1):
            assert counting.f_k_rec(P, k) == stirling2(n, k)
            assert counting.g_k_rec(P, k) == stirling2(n, k)
        assert counting.f_total(P) == bell(n)
        assert counting.g_total(P) == bell(n)


def test_check_identity_examples():
    rep = check_identity("choose2-plus-one", 4)
    assert (rep.lhs, rep.rhs, rep.passed) == (7, 7, True)
    rep = check_identity("bell-partition-sum", 3)
    assert (rep.lhs, rep.rhs, rep.passed) == (5, 5, True)
    rep = check_identity("stirling-partial-sum", 3, 3)
    assert (rep.lhs, rep.rhs, rep.passed) == (5, 5, True)


def test_check_identity_all_pass_small():
    for n in range(0, 13):
        assert check_identity("bell-partition-sum", n).passed
        assert check_identity("choose2-plus-one", n).passed
        for k in range(1, n + 1):
            assert check_identity("stirling-partial-sum", n, k).passed
            assert check_identity("stirling-adjacent-sum", n, k).passed
    for n in range(1, 11):
        assert check_identity("composition-aggregate", n).passed
        assert check_identity("primorial-bell", n).passed
        assert check_identity("primorial-stirling", n, max(1, n // 2)).passed


def test_partition_power_sum_integrity_check_fires(monkeypatch):
    # B_3 = (1 * 3**3 + 3 * 1**3 + 2 * 0**3) / 3!; with z = 3 for the class
    # (1, 1) its size drops from 3 to 2 and the sum 29 leaves remainder 5
    real = partition_counts.centralizer_order
    monkeypatch.setattr(partition_counts, "centralizer_order",
                        lambda beta: 3 if beta == (1, 1) else real(beta))
    with pytest.raises(IntegrityError):
        check_identity("bell-partition-sum", 3)


def test_check_identity_validation():
    with pytest.raises(ValueError):
        check_identity("no-such-identity", 3)
    with pytest.raises(ValueError):
        check_identity("stirling-partial-sum", 3)  # missing k
    with pytest.raises(ValueError):
        check_identity("stirling-partial-sum", 3, 4)  # k > n


def test_identity_report_fields():
    rep = check_identity("primorial-stirling", 6, 3)
    assert rep.identity in IDENTITIES
    assert rep.n == 6 and rep.k == 3
    assert rep.passed == (rep.lhs == rep.rhs)
    assert rep.lhs == stirling2(6, 3)
