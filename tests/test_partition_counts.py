"""Tests for partition-side counts, Stirling/Bell numbers, and identities."""

import random
import re
import sys
from collections import Counter
from math import comb, factorial

import pytest
import references

from multifact import cli, counting, oracle, partition_counts
from multifact.arith import IntegrityError
from multifact.counting import canonical
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


def test_stirling_keeps_one_row_and_rebuilds_it_for_a_smaller_n():
    counting.clear_caches()
    assert bell(40) == 157450588391204931289324344702531067
    assert len(partition_counts._STIRLING["row"]) == 41  # S(40, 0..40) only
    assert [stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert len(partition_counts._STIRLING["row"]) == 6
    # S(n, k) = sum_i (-1)**i C(k, i) (k - i)**n / k!
    explicit = sum((-1) ** i * comb(20, i) * (20 - i) ** 40 for i in range(21))
    assert stirling2(40, 20) == explicit // factorial(20)
    assert [bell(n) for n in range(7, -1, -1)] == [877, 203, 52, 15, 5, 2, 1, 1]


def test_stirling_against_oracle_primorials():
    # k-block set partitions match k-part factorizations of squarefree numbers
    read = cli._ORACLE_READS
    assert read["g_k"](oracle.profile(30), 2, None) == stirling2(3, 2) == 3
    assert read["f_k"](oracle.profile(210), 2, None) == stirling2(4, 2) == 7


def test_bell_values():
    assert bell(3) == 5
    assert bell(0) == 1
    assert bell(4) == 15
    assert [bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert bell(3) == cli._ORACLE_READS["f"](oracle.profile(30), None, None)
    assert bell(4) == cli._ORACLE_READS["f"](oracle.profile(210), None, None)


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
            fi = references.prime_power(pi, n)
            for l in range(1, 8):
                assert r_l(n, l) == counting.h_l(fi, l)
            for k in range(1, n + 1):
                for l in range(1, min(k, 7) + 1):
                    assert p_kl(n, k, l) == counting.f_kl(fi, k, l)


def test_primorial_evaluations():
    for n in range(0, 9):
        P = canonical((1,) * n)
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


@pytest.mark.parametrize("sabotage", ["drop a composition", "z off by one", "drop a partition"])
def test_composition_aggregate_fails_on_a_broken_side(monkeypatch, sabotage):
    def drop_the_second(name):
        # the second composition, (1, ..., 1, 2), shares its multiplicity
        # vector with (1, ..., 2, 1), so that class's sum falls short
        real = getattr(partition_counts, name)
        monkeypatch.setattr(partition_counts, name,
                            lambda n: (x for i, x in enumerate(real(n)) if i != 1))

    if sabotage == "drop a composition":
        drop_the_second("compositions_of")
    elif sabotage == "drop a partition":
        drop_the_second("enumerate_partitions")
    else:
        real = partition_counts.centralizer_order
        monkeypatch.setattr(partition_counts, "centralizer_order", lambda beta: real(beta) + 1)
    for n in range(3, 11):
        assert not check_identity("composition-aggregate", n).passed, n


def test_partition_power_sum_integrity_check_fires(monkeypatch):
    # B_3 = big_F(2*3*5, 3) = (1 * 3**3 + 3 * 1**3 + 2 * 0**3) / 3!; with the
    # weight of the class (2, 1) dropped from 3 to 2 the sum 29 leaves
    # remainder 5
    real = counting._colored_classes

    def corrupted(k, top, signed):
        for weight, nu in real(k, top, signed):
            yield (weight - 1 if k == 3 and weight == 3 else weight), nu

    counting.clear_caches()
    monkeypatch.setattr(counting, "_colored_classes", corrupted)
    with pytest.raises(IntegrityError):
        check_identity("bell-partition-sum", 3)


@pytest.mark.parametrize("memo, planted, route, args, message", [
    ("_P_KL", ((2, 1, 1), 2), p_kl, (3, 2, 2), "p_kl(3, 2, 2): sum 4 not divisible by 3"),
    ("_R_L", ((2, 1), 3), r_l, (3, 2), "r_l(3, 2): sum 4 not divisible by 3"),
])
def test_partition_recursion_integrity_check_fires_on_an_off_by_one_sub_state(
        monkeypatch, memo, planted, route, args, message):
    # the sub-state is one more than its count: p_{1,1}(2) = 1, r_1(2) = 2
    counting.clear_caches()
    monkeypatch.setitem(getattr(partition_counts, memo), *planted)
    with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
        route(*args)
    counting.clear_caches()


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


# Grid on which the pruned recursions must equal the unpruned ones kept in
# tests/references.py.
GRID_N, GRID_K, GRID_L, GRID_J = 80, 14, 6, 8
# p_kl from an empty memo costs about 50 s over the whole grid (2-vCPU VM),
# so that mode stops at this n; the ascending sweep covers the whole grid
P_KL_COLD_N = 40


@pytest.fixture
def deep_stack():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    yield
    sys.setrecursionlimit(limit)


@pytest.fixture(scope="module")
def grid_reference():
    """Every grid value of the three unpruned recursions, keyed by
    (function name, *arguments)."""
    references.clear_partition_memos()
    values = {}
    for n in range(GRID_N + 1):
        for l in range(GRID_L + 1):
            for k in range(GRID_K + 1):
                values["p_kl", n, k, l] = references.p_kl(n, k, l)
            values["r_l", n, l] = references.r_l(n, l)
            for j in range(1, GRID_J + 1):
                values["r_lj", n, l, j] = references.r_lj(n, l, j)
    references.clear_partition_memos()
    return values


@pytest.mark.parametrize("name", ["p_kl", "r_l", "r_lj"])
def test_recursions_from_an_empty_memo_match_the_references(name, grid_reference):
    function = getattr(partition_counts, name)
    top_n = P_KL_COLD_N if name == "p_kl" else GRID_N
    for (fname, n, *rest), expected in grid_reference.items():
        if fname == name and n <= top_n:
            counting.clear_caches()
            assert function(n, *rest) == expected, (name, n, *rest)
    counting.clear_caches()


def test_recursions_over_an_ascending_sweep_match_the_references(grid_reference, deep_stack):
    # n rises as in bfile, so r_lj reads r_{l,j}(n-j) and r_{l,j+1}(n-j) from
    # the memo and takes its telescoped sum
    counting.clear_caches()
    for (name, *args), expected in grid_reference.items():
        assert getattr(partition_counts, name)(*args) == expected, (name, *args)
    counting.clear_caches()


def test_recursions_at_the_sequence_indices(deep_stack):
    # values of the unpruned recursions in tests/references.py, too slow to
    # recompute here; r_1(900) = d(900) = 27, and p_{3,2}(300) counts
    # (a, a, 300 - 2a) for a = 1..149 without a = 100
    counting.clear_caches()
    for n in range(1, 901):
        values = [r_lj(n, l, 1) for l in (1, 2, 3)]
    assert values == [27, 27944, 16945853]
    for n in range(1, 301):
        values = [p_kl(n, 3, 2), p_kl(n, 4, 2), r_l(n, 1), r_l(n, 2), r_l(n, 3)]
    assert values == [148, 172, 18, 6101, 983196]
    counting.clear_caches()


def test_recursions_call_themselves_only_for_missing_states(monkeypatch):
    """Every call of the three recursions adds a memo entry, except the
    top-level ones and the last step of each j chain: a sub-state that a
    guard returns as 0 is never called, and a memo hit is read, not called."""
    calls = Counter()
    for name in ("p_kl", "r_l", "r_lj"):
        def counted(*args, _function=getattr(partition_counts, name), _name=name):
            calls[_name] += 1
            return _function(*args)

        monkeypatch.setattr(partition_counts, name, counted)
    top_level = Counter()
    counting.clear_caches()
    for n in range(1, 401):
        for l in (2, 3):
            partition_counts.r_lj(n, l, 1)
            top_level["r_lj"] += 1
    for n in range(1, 301):
        for l in (1, 2, 3):
            partition_counts.r_l(n, l)
            top_level["r_l"] += 1
        for k, l in ((3, 2), (4, 2)):
            partition_counts.p_kl(n, k, l)
            top_level["p_kl"] += 1
    # r_lj's memo holds one dict of rows per l, each row a list indexed by
    # n - j*l, so its states are the rows' set slots, not their lengths
    states = {"p_kl": len(partition_counts._P_KL), "r_l": len(partition_counts._R_L),
              "r_lj": sum(value is not None for rows in partition_counts._R_LJ.values()
                          for row in rows.values() for value in row)}
    for name, entries in states.items():
        # the unpruned recursions make 1,320,035 / 1,300,624 / 1,603,906
        # calls here for 146,001 / 893 / 1,488 entries
        assert calls[name] <= (entries + top_level[name]) * 1.1, name
    counting.clear_caches()


def test_r_lj_rows_store_the_states_of_the_unpruned_recursion(deep_stack):
    """_R_LJ maps l to a dict of rows keyed by j, each row a list with
    row[n - j*l] = r_{l,j}(n) or None where no state is stored; a sweep
    stores the same states, with the same values, as the unpruned
    recursion's (n, l, j) memo."""
    counting.clear_caches()
    references.clear_partition_memos()
    for n in range(1, 401):
        for l in (2, 3):
            assert r_lj(n, l, 1) == references.r_lj(n, l, 1)
    rows = {(l, j): row for l, by_j in partition_counts._R_LJ.items() for j, row in by_j.items()}
    assert all(type(row) is list for row in rows.values())
    # r_{l,j}(n) is 0 below n = j*l, and the guard returns it unstored, so
    # each row starts there and ends at its last stored state
    assert all(l >= 1 and j >= 1 and row and row[-1] is not None for (l, j), row in rows.items())
    states = {(j * l + at, l, j): value for (l, j), row in rows.items()
              for at, value in enumerate(row) if value is not None}
    assert len(states) == 146_001
    assert states == references._REF_R_LJ
    assert rows[2, 1][400 - 2] == 8_244 and rows[3, 1][400 - 3] == 2_067_383
    counting.clear_caches()
    references.clear_partition_memos()


def test_r_lj_rows_grow_with_the_states_not_with_n():
    # a huge n with j near n/l makes a short chain, and each row it touches
    # holds a few slots from its start n = j*l on
    counting.clear_caches()
    assert r_lj(10**9, 1, 10**9) == 1
    assert partition_counts._R_LJ == {1: {10**9: [1]}}
    n = 10**9
    assert r_lj(n, 1, n - 5) == 1  # only the part n itself
    assert r_lj(n, 2, n // 2 - 3) == 3  # (n/2 + 3 - t) + (n/2 - 3 + t), t = 0..2
    # 58 slots over 16 rows; rows indexed from n = 0 would pad each to 10**9
    assert sum(len(row) for rows in partition_counts._R_LJ.values() for row in rows.values()) <= 100
    counting.clear_caches()


def test_r_lj_takes_one_frame_per_level_of_its_chain(monkeypatch):
    """Each level of the j-chain adds one r_lj frame and nothing else: the
    frames per level set which deep queries exhaust the interpreter stack,
    and so which r_lj ops of the sequence benchmark raise RecursionError."""
    depths = []

    def spy(n, l, j, _r_lj=partition_counts.r_lj):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        depths.append((j, depth))
        return _r_lj(n, l, j)

    monkeypatch.setattr(partition_counts, "r_lj", spy)
    counting.clear_caches()
    assert partition_counts.r_lj(60, 1, 1) == 12  # one per divisor of 60
    # j = 61 is the chain's last step, the guard's 0 at n - j*l < 0
    assert [j for j, _ in depths] == list(range(1, 62))
    # each call sits below the spy and one r_lj frame of its caller
    assert all(inner - outer == 2 for (_, outer), (_, inner) in zip(depths, depths[1:]))
    counting.clear_caches()


def test_r_lj_rows_take_states_in_any_order(monkeypatch):
    """Queries in a shuffled order write past a row's end, padding it with
    None, and into its None slots, where an upward sweep only appends; every
    stored state still equals the unpruned recursion's, and every memo hit,
    the chain state at its row's start included, is read without a call."""
    calls = Counter()

    def counted(*args, _r_lj=partition_counts.r_lj):
        calls["r_lj"] += 1
        return _r_lj(*args)

    monkeypatch.setattr(partition_counts, "r_lj", counted)
    queries = [(n, l, j) for n in range(121) for l in range(5) for j in range(1, 6)]
    random.Random(2024).shuffle(queries)
    counting.clear_caches()
    references.clear_partition_memos()
    writes = Counter()
    for n, l, j in queries:
        row, k = partition_counts._R_LJ.get(l, {}).get(j, []), n - j * l
        if 0 <= k and l >= 1 and (k >= len(row) or row[k] is None):
            writes["pad" if k > len(row) else "append" if k == len(row) else "fill"] += 1
        assert partition_counts.r_lj(n, l, j) == references.r_lj(n, l, j), (n, l, j)
    assert min(writes["pad"], writes["append"], writes["fill"]) > 0, writes
    assert calls["r_lj"] == 17_850
    for l, by_j in partition_counts._R_LJ.items():
        for j, row in by_j.items():
            # the row starts at n = j*l and ends at a stored state
            assert l >= 1 and j >= 1 and row[-1] is not None, (l, j)
            for at, value in enumerate(row):
                if value is not None:
                    assert value == references.r_lj(j * l + at, l, j), (j * l + at, l, j)
    counting.clear_caches()
    references.clear_partition_memos()
