"""Tests for the factorization-counting routes and their agreement."""

import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, inf, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from multifact import cli, counting, oracle, partition_counts, partitions
from multifact.arith import (
    FactoredInt,
    IntegrityError,
    factorize,
    first_primes,
    kappa,
    prime_signature,
)
from multifact.counting import (
    big_F,
    big_G,
    canonical,
    f_k_kappa,
    f_k_rec,
    f_kl,
    f_total,
    fedorov_F,
    g_from_G,
    g_k_kappa,
    g_k_rec,
    g_total,
    h_l,
    reduction_table,
)
from multifact.partition_counts import stirling2
from multifact.partitions import (
    centralizer_order,
    euler_transform,
    multiplicity_vector,
    prefix_product,
)
from references import class_table_partition_sum, divisor_power_reductions, walk_partition_sum
from references import reduction_table as grouped_reduction_table
from test_partitions import PARTITION_COUNTS

FI36 = factorize(36)
FI1 = factorize(1)
FI_P = factorize(97)


# ---------------------------------------------------------------- big_F / big_G

def test_big_F_values():
    assert big_F(FI36, 2) == 5  # f_1 + f_2 = 1 + 4
    assert big_F(FI_P, 3) == 1  # hand evaluation: 1/3*0 + 1/2*1 + 1/6*3
    assert big_F(FI36, 1) == 1
    assert big_F(factorize(5), 1) == 1


def test_big_F_boundaries():
    assert big_F(FI1, 0) == 1
    assert big_F(FI36, 0) == 0
    assert all(big_F(FI1, k) == 1 for k in range(1, 8))


def test_big_G_values():
    assert big_G(FI36, 2) == 4  # g_2 + g_1 = 3 + 1
    assert big_G(FI_P, 3) == 0  # hand evaluation: 0 - 1/2 + 1/2
    assert big_G(FI36, 1) == 1  # g_1 + g_0 = 1 + 0


def test_big_G_boundaries():
    assert big_G(FI1, 0) == 1
    assert big_G(FI1, 1) == 1
    assert big_G(FI1, 2) == 0
    assert big_G(FI36, 0) == 0


def _class_reference(k, top, signed):
    """The (weight, nu) of every group of the partitions of k that share their
    parts <= top, from the oracle's partition enumerator, z_beta and the
    Euler recurrence: a group's weight sums theta(beta) * k! / z_beta over it
    (theta only when `signed`), and its nu is that of the parts <= top."""
    weights = Counter()
    for p in oracle.enumerate_partitions(k):
        beta = multiplicity_vector(p)
        sign = -1 if signed and sum(beta[1::2]) & 1 else 1
        weights[tuple(x for x in p if x <= top)] += sign * factorial(k) // centralizer_order(beta)
    return [(w, [1] + (euler_transform(multiplicity_vector(small), top) if top else []))
            for small, w in weights.items()]


def test_class_sizes_count_the_permutations():
    for k in range(0, 21):
        for top in sorted({0, 1, 4, k - 1, k, k + 1} - {-1}):
            classes = list(counting._colored_classes(k, top, False))
            # the weights count the k! permutations of k objects by cycle type
            assert sum(w for w, _ in classes) == factorial(k)
            if top >= k:
                assert len(classes) == PARTITION_COUNTS[k]
            assert sorted(classes) == sorted(_class_reference(k, top, False))
            signed = list(counting._colored_classes(k, top, True))
            # sum of the signs of the permutations of k objects
            assert sum(w for w, _ in signed) == (k <= 1)
            assert sorted(signed) == sorted(_class_reference(k, top, True))


def test_the_walk_closes_the_parts_past_top_in_one_block():
    # at top = 1 every node with a rest > 1 closes, and only the parts 1 are
    # walked: k nodes, each yielding once, where the full walk yields p(k)
    for k in range(2, 40):
        assert len(list(counting._colored_classes(k, 1, False))) == k
    assert list(counting._colored_classes(30, 0, False)) == [(factorial(30), [1])]


def _cycle_shapes(m):
    """(shortest cycle, number of even cycles is odd) of every permutation of
    range(m), counted; the identity of range(0) has no cycle."""
    shapes = Counter()
    for perm in permutations(range(m)):
        seen, lengths = set(), []
        for start in range(m):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = perm[i]
                length += 1
            if length:
                lengths.append(length)
        shapes[min(lengths, default=inf), sum(not x & 1 for x in lengths) & 1] += 1
    return shapes


def test_long_cycle_counts_match_brute_force():
    shapes = [_cycle_shapes(m) for m in range(9)]
    for top in range(0, 9):
        for signed in (False, True):
            # the permutations whose cycles are all longer than top
            brute = [sum(-c if signed and odd else c
                         for (shortest, odd), c in shape.items() if shortest > top)
                     for shape in shapes]
            assert counting._long_cycles(8, top, signed) == brute, (top, signed)


def test_long_cycle_counts_at_top_zero():
    # every permutation has all its cycles longer than 0; their signs cancel
    # past one object
    assert counting._long_cycles(30, 0, False) == [factorial(m) for m in range(31)]
    assert counting._long_cycles(30, 0, True) == [int(m <= 1) for m in range(31)]


@pytest.mark.parametrize("k", range(0, 25))
def test_partition_sums_equal_the_walk_over_every_partition(k):
    tops = {t for t in (1, 2, k - 1, k, k + 1) if t >= 1}
    # n = 1 has top 0; squarefree n has top 1
    sigs = {(), (1,), (1,) * 6, (2, 2, 1, 1), (12,), (30,),
            *((t,) for t in tops), *((t, 1, 1) for t in tops), *((t, t) for t in tops)}
    for sig in sorted(sigs):
        counting.clear_caches()
        fi = canonical(sig)
        assert big_F(fi, k) == walk_partition_sum(fi, k, signed=False), sig
        assert big_G(fi, k) == walk_partition_sum(fi, k, signed=True), sig


def _corrupt_one_class_size(monkeypatch, k, weight):
    """Move the weight `weight` of k one further from 0, in the classes the
    partition sums read."""
    counting.clear_caches()
    real = counting._colored_classes

    def corrupted(k_, top, signed):
        for w, nu in real(k_, top, signed):
            yield w + (k_ == k and w == weight) * (1 if w > 0 else -1), nu

    monkeypatch.setattr(counting, "_colored_classes", corrupted)


def test_big_F_integrity_check_fires_on_a_corrupted_class_size(monkeypatch):
    # n = pqr has Omega = 3 = k, and top = 1; the walk yields F_3(pqr) * 3! =
    # 1 * nu_(1,1,1)(1)**3 + 3 * nu_(1)(1)**3 + 2 * nu_()(1)**3 = 27 + 3 + 0:
    # the weight 3 is the class (2, 1), whose part 2 is past top; one more in
    # it leaves remainder 1
    _corrupt_one_class_size(monkeypatch, 3, 3)
    with pytest.raises(IntegrityError,
                       match=r"^big_F\(\(1, 1, 1\), 3\): sum 31 not divisible by 6$"):
        big_F(canonical((1, 1, 1)), 3)


def test_big_G_integrity_check_fires_on_a_corrupted_class_size(monkeypatch):
    _corrupt_one_class_size(monkeypatch, 3, -3)
    with pytest.raises(IntegrityError,
                       match=r"^big_G\(\(1, 1, 1\), 3\): sum 23 not divisible by 6$"):
        big_G(canonical((1, 1, 1)), 3)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(1, 20), min_size=1, max_size=5).map(
        lambda exps: tuple(sorted(exps, reverse=True))),
    st.integers(0, 30),
)
@example((20, 10), 30)
@example((12, 12), 30)
@example((1,) * 10, 30)
def test_partition_sums_match_the_class_table_reference(sig, k):
    counting.clear_caches()
    fi = canonical(sig)
    assert big_F(fi, k) == class_table_partition_sum(fi, k, signed=False)
    assert big_G(fi, k) == class_table_partition_sum(fi, k, signed=True)


class _SharedNuCode(Exception):
    pass


def test_partition_sum_and_fedorov_share_no_nu_code(monkeypatch):
    # the two formula routes of F_k must get nu by different algorithms, or
    # their agreement proves nothing
    counting.clear_caches()
    expected_F, expected_G = big_F(FI36, 6), big_G(FI36, 6)
    counting.clear_caches()

    def refuse(*args):
        raise _SharedNuCode

    for name in ("mu_beta", "euler_transform", "centralizer_order"):
        monkeypatch.setattr(partitions, name, refuse)
        monkeypatch.setattr(counting, name, refuse, raising=False)
    assert big_F(FI36, 6) == expected_F
    assert big_G(FI36, 6) == expected_G
    with pytest.raises(_SharedNuCode):
        fedorov_F(FI36, 6)
    counting.clear_caches()


# Runs a command and prints its exit code, its stdout and its peak RSS.  A
# child's ru_maxrss also counts the memory of the process it was started from,
# so the command is started from this small interpreter, not from pytest.
_PEAK_RSS_PROBE = """
import json, resource, subprocess, sys
out = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, text=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([out.returncode, out.stdout, peak]))
"""


def test_partition_sum_memory_does_not_grow_with_the_partition_count():
    # p(50) = 204226 classes; a table of them peaked at 72 MB.  The largest
    # exponent 46 keeps nearly all of them in the walk: only the parts > 46
    # close in one block
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", _PEAK_RSS_PROBE, sys.executable, "-m", "multifact.cli",
           "compute", "F_k", str(2**46), "--k", "50", "--method", "partition-sum"]
    probe = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    code, output, peak = json.loads(probe.stdout)
    assert (code, output) == (0, "105558\n")  # p(46)
    # ru_maxrss is in kilobytes on Linux, bytes on macOS
    peak_mb = peak / (1024 * 1024 if sys.platform == "darwin" else 1024)
    assert peak_mb < 40, f"peak RSS {peak_mb:.1f} MB"


def test_fedorov_F_integrity_check_fires_on_a_corrupted_weight(monkeypatch):
    # the composition (1, 2) weighs 3! / (1 * 3) = 2; halving it leaves
    # remainder 5 in the sum 3 + 2 + 1 over (1, 1, 1), (1, 2), (2, 1)
    counting.clear_caches()
    real = partitions.prefix_product
    monkeypatch.setattr(
        partitions, "prefix_product", lambda comp: 6 if comp == (1, 2) else real(comp)
    )
    with pytest.raises(IntegrityError,
                       match=r"^fedorov_F\(\(1,\), 3\): sum 5 not divisible by 6$"):
        fedorov_F(FI_P, 3)


@pytest.mark.parametrize("sig, k", [((12,), 13), ((2, 2, 1, 1), 12), ((1,), 16)])
def test_fedorov_F_builds_each_multiplicity_vector_once(monkeypatch, sig, k):
    # the composition weights are summed per partition of k, so of the
    # 2**(k-1) compositions only one per partition builds a multiplicity vector
    fi = canonical(sig)
    expected = walk_partition_sum(fi, k, signed=False)
    calls = []

    def counted(comp):
        calls.append(comp)
        return multiplicity_vector(comp)

    counting.clear_caches()
    monkeypatch.setattr(partitions, "multiplicity_vector", counted)
    assert fedorov_F(fi, k) == expected
    assert 0 < len(calls) == PARTITION_COUNTS[k]


def test_fedorov_F_walks_the_compositions_of_k_once_for_every_signature(monkeypatch):
    # the composition weights depend on k alone, so one table per k serves
    # every signature fedorov_F is asked at that k
    counting.clear_caches()
    calls = []

    def counted(k):
        calls.append(k)
        return partitions.composition_weights(k)

    monkeypatch.setattr(counting, "composition_weights", counted)
    sigs = [(12,), (6, 2), (4, 4), (3, 2, 1), (2, 2, 2), (5, 1), (2, 1, 1, 1),
            (8,), (1, 1), (7, 3, 1), (1,)]
    for sig in sigs:
        assert fedorov_F(canonical(sig), 9) == big_F(canonical(sig), 9), sig
    assert calls == [9]
    counting.clear_caches()


def plant_off_by_one_entry(monkeypatch, i, rest, count=1, weight=1):
    """Add `count` to the count and `weight` to the weight of the group of
    rest signature `rest` in row i of the reduction table of p**2, after
    clearing every cache."""
    counting.clear_caches()
    rows = list(reduction_table((2,)))
    rows[i] = tuple((r, om, c + count, w + weight) if r.signature == rest else (r, om, c, w)
                    for r, om, c, w in rows[i])
    monkeypatch.setitem(counting._TABLES, (2,), tuple(rows))


# the memo key of each route is (signature, *indices); n = p**2 has the
# groups (i, rest) = (1, p), (1, 1) and (2, 1), one per row i and rest
@pytest.mark.parametrize("route, indices, i, rest, message", [
    (f_k_rec, (2,), 2, (), "f_k_rec((2,), 2): sum 3 not divisible by 2"),
    (g_k_rec, (2,), 2, (), "g_k_rec((2,), 2): sum -1 not divisible by 2"),
    (f_k_kappa, (2,), 2, (), "f_k_kappa((2,), 2): sum 3 not divisible by 2"),
    (g_k_kappa, (2,), 2, (), "g_k_kappa((2,), 2): sum -1 not divisible by 2"),
    (f_kl, (2, 2), 1, (1,), "f_kl((2,), 2, 2): sum 1 not divisible by 2"),
    (h_l, (1,), 1, (), "h_l((2,), 1): sum 5 not divisible by 2"),
])
def test_recursion_integrity_check_fires_on_an_off_by_one_table_entry(
        monkeypatch, route, indices, i, rest, message):
    plant_off_by_one_entry(monkeypatch, i, rest)
    with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
        route(canonical((2,)), *indices)


@pytest.mark.parametrize("route, k, items", [
    (fedorov_F, 21, "compositions"),  # 2**20 > 10**6
    (fedorov_F, 40, "compositions"),
    (big_F, 61, "partitions"),  # p(61) = 1121505
    (big_G, 61, "partitions"),
])
def test_formula_routes_refuse_past_the_oracle_budget_at_once(route, k, items,
                                                              within_a_second):
    # on the product of the first 61 primes, Omega = 61, so the partition
    # sums walk k itself
    counting.clear_caches()
    message = f"^more than {oracle.DEFAULT_MAX_FACTORIZATIONS} {items} of {k}$"
    with pytest.raises(oracle.OracleLimitError, match=message):
        route(canonical((1,) * 61), k)


def test_formula_routes_answer_at_the_last_k_within_the_oracle_budget():
    # 2**19 compositions of 20, and p(60) = 966467 partitions of 60, walked on
    # the product of the first 61 primes with its parts past 1 in one block
    counting.clear_caches()
    assert fedorov_F(FI1, 20) == 1
    P = canonical((1,) * 61)
    assert big_F(P, 60) == sum(stirling2(61, i) for i in range(61))
    assert big_G(P, 60) == stirling2(61, 60) + stirling2(61, 59)


# ---------------------------------------------------------------- recursions

def test_f_k_rec_paper_values():
    assert f_k_rec(FI36, 2) == 4
    assert sum(f_k_rec(factorize(12), k) for k in range(1, 4)) == 4
    assert sum(f_k_rec(factorize(75), k) for k in range(1, 4)) == 4
    assert f_k_rec(FI1, 0) == 1
    assert f_k_rec(FI1, 3) == 0


def test_g_k_rec_values():
    assert g_k_rec(FI36, 2) == 3
    assert g_k_rec(FI36, 1) == 1
    assert g_k_rec(factorize(49), 2) == 0  # only (p*p) repeats


def test_kappa_recursions():
    assert f_k_kappa(FI36, 2) == 4
    assert g_k_kappa(FI36, 2) == 3
    assert f_k_kappa(factorize(8), 2) == 1  # (2, 4)


def test_kappa_routes_give_the_oracle_values_wherever_the_largest_exponent_stands():
    # 600 = 2^3 * 3 * 5^2, 1350 = 2 * 3^3 * 5^2 and 540 = 2^2 * 3^3 * 5 share
    # one signature and one reduction table; each call divides by the
    # exponent of a prime that carries the largest exponent, signature[0],
    # wherever that prime stands
    read = cli._ORACLE_READS
    for n in (600, 1350, 540):
        fi = factorize(n)
        assert fi.signature == (3, 2, 1)
        prof = oracle.profile(n)
        om = fi.big_omega
        expected = (
            [read["f_k"](prof, k, None) for k in range(om + 2)],
            [read["g_k"](prof, k, None) for k in range(om + 2)],
            [prof.get((k, l), 0) for k in range(om + 2) for l in range(k + 1)],
            [read["h_l"](prof, None, l) for l in range(om + 2)],
        )
        counting.clear_caches()
        values = (
            [f_k_kappa(fi, k) for k in range(om + 2)],
            [g_k_kappa(fi, k) for k in range(om + 2)],
            [f_kl(fi, k, l) for k in range(om + 2) for l in range(k + 1)],
            [h_l(fi, l) for l in range(om + 2)],
        )
        assert values == expected, n
    counting.clear_caches()


BASE_ROUTES = (big_F, big_G, fedorov_F, f_k_rec, g_k_rec, f_k_kappa, g_k_kappa, f_kl, h_l)


@pytest.mark.parametrize("n", [1, 2, 36, 600, 1350, 2**6 * 3**4 * 5**2, 720720])
def test_base_routes_read_n_only_through_its_signature(n):
    # a stand-in with only the signature and Omega gets the real n's value
    # from every base route, cold, at every index up to Omega + 1
    fi = factorize(n)
    stand_in = SimpleNamespace(signature=fi.signature, big_omega=fi.big_omega)
    for route in BASE_ROUTES:
        indices = ([(k, l) for k in range(fi.big_omega + 2) for l in range(k + 1)]
                   if route is f_kl else [(k,) for k in range(fi.big_omega + 2)])
        for index in indices:
            counting.clear_caches()
            expected = route(fi, *index)
            counting.clear_caches()
            assert route(stand_in, *index) == expected, (route.__name__, n, index)
    counting.clear_caches()


@pytest.mark.parametrize("route, expected", [
    (f_k_rec, 1), (g_k_rec, 0), (f_k_kappa, 1), (g_k_kappa, 0),
])
def test_recursions_take_one_frame_per_level(route, expected):
    # 2**200 at k = 200 recurses 200 levels deep; 250 frames of headroom
    # suffice only if each level costs one frame
    counting.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 250)
    try:
        assert route(canonical((200,)), 200) == expected
    finally:
        sys.setrecursionlimit(limit)
        counting.clear_caches()


RECURSION_MEMOS = {  # route: (number of indices after n, memo)
    "f_k_rec": (1, "_FK_REC"), "g_k_rec": (1, "_GK_REC"),
    "f_k_kappa": (1, "_FK_KAP"), "g_k_kappa": (1, "_GK_KAP"),
    "f_kl": (2, "_FKL"), "h_l": (1, "_HL"),
}


@pytest.mark.parametrize("sig", [(4, 3, 2), (6, 6), (3, 2, 1, 1), (12,)])
def test_every_recursion_call_past_the_early_returns_adds_a_memo_entry(monkeypatch, sig):
    # the recursions read memo hits inline and call a route only for a key
    # its memo lacks, so from cold caches no call that gets past the early
    # returns finds its key in the memo
    reached = {name: [] for name in RECURSION_MEMOS}
    for name, (arity, _) in RECURSION_MEMOS.items():
        def counted(n, *args, name=name, arity=arity, route=getattr(counting, name), **kwargs):
            k, l = args[0], args[arity - 1]  # l = k for the routes of one index
            if n.value > 1 and 1 <= l <= k <= n.big_omega:
                reached[name].append((n.signature, *args[:arity]))
            return route(n, *args, **kwargs)

        monkeypatch.setattr(counting, name, counted)
    counting.clear_caches()
    fi = canonical(sig)
    om = fi.big_omega
    for name in ("f_k_rec", "g_k_rec", "f_k_kappa", "g_k_kappa"):
        counting._k_sum(getattr(counting, name), fi, om)
    for k in range(1, om + 1):
        for l in range(1, k + 1):
            counting.f_kl(fi, k, l)
        counting.h_l(fi, k)
    for name, (_, memo) in RECURSION_MEMOS.items():
        keys = reached[name]
        assert len(keys) == len(set(keys)) == len(getattr(counting, memo)), name
        assert set(keys) == set(getattr(counting, memo)), name
    counting.clear_caches()


@pytest.mark.parametrize("function, method, n, k, l, route, calls, entries", [
    ("f", "recursion", 2**10 * 3**10, None, None, "f_k_rec", 661, 660),
    ("g_k", "kappa-recursion", 2**6 * 3**6 * 5**6, 9, None, "g_k_kappa", 470, 470),
    ("f_kl", "recursion", 2**20 * 3**4, 12, 3, "f_kl", 604, 604),
    ("h_l", "recursion", 2**12 * 3**12, None, 3, "h_l", 177, 177),
    ("g", "recursion", 2**4 * 3**3 * 5**2 * 7 * 11, None, None, "g_k_rec", 362, 361),
])
def test_each_recursion_keeps_its_memo_traffic(monkeypatch, function, method, n, k, l,
                                               route, calls, entries):
    # every route name is wrapped in place, as a tracer wraps it; from cold
    # caches a query makes one call per memo entry, plus its calls at k = 0
    counted = Counter()
    for name in RECURSION_MEMOS:
        def wrapped(*args, name=name, fn=getattr(counting, name)):
            counted[name] += 1
            return fn(*args)

        monkeypatch.setattr(counting, name, wrapped)
    cli._clear_all_caches()
    cli.evaluate(function, method, n, k, l)
    assert counted == {route: calls}
    assert len(getattr(counting, RECURSION_MEMOS[route][1])) == entries
    counting.clear_caches()


ORACLE_FUNCTIONS = {  # route: the function whose oracle read it must equal
    "f_k_rec": "f_k", "g_k_rec": "g_k", "f_k_kappa": "f_k", "g_k_kappa": "g_k",
}


@pytest.mark.parametrize("make", [
    lambda: canonical((12,)), lambda: canonical((6, 6)), lambda: canonical((4, 3, 2)),
    lambda: factorize(46656),
], ids=["(12,)", "(6, 6)", "(4, 3, 2)", "factorize(46656)"])
def test_no_recursion_calls_a_route_at_index_0(monkeypatch, make):
    # each recursion reads x_0(rest) = [rest is the unit] inline at i == k
    # (f_kl at (0, 0), h_l at l - j = 0), so from cold caches no call of the
    # six routes has an index 0, and every value is still the oracle's
    calls = []
    for name in RECURSION_MEMOS:
        def counted(n, *args, name=name, route=getattr(counting, name)):
            calls.append((name, n.signature, *args))
            return route(n, *args)

        monkeypatch.setattr(counting, name, counted)
    counting.clear_caches()
    fi = make()
    profile = oracle.profile(fi.value)
    reads = cli._ORACLE_READS
    for k in range(1, fi.big_omega + 1):
        for name, function in ORACLE_FUNCTIONS.items():
            assert getattr(counting, name)(fi, k) == reads[function](profile, k, 0), (name, k)
        assert counting.h_l(fi, k) == reads["h_l"](profile, 0, k), ("h_l", k)
        for l in range(1, k + 1):
            assert counting.f_kl(fi, k, l) == reads["f_kl"](profile, k, l), ("f_kl", k, l)
    assert calls and not [call for call in calls if 0 in call[2:]]
    counting.clear_caches()


# ---------------------------------------------------------------- reduction tables

def _deep_pool_signatures():
    """The signatures of the benchmark's deep-signature pool."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("deep_pool_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return sorted({tuple(sorted(sig, reverse=True)) for _, _, sig, *_ in workloads.DEEP_POOL})


DEEP_SIGNATURES = [
    (20, 10), (4, 3, 2, 1, 1), (1,) * 8, (30,), (24,), (12, 12), (10, 10),
    (20, 4), (8, 8), (6, 6, 6), (5, 5, 5), (4, 4, 4), (3, 3, 2, 2, 2),
    (8, 6, 4, 3, 1, 1), (16, 8), (10, 10, 4), (2, 2, 1, 1), (1,) * 6,
    (7, 1), (9, 3, 3), (6, 1, 1, 1), (5, 4, 3, 2, 1), (2, 2, 2, 2, 2, 2),
    (12, 1), (3, 3, 3, 3), (15, 5, 1), (11, 7, 2), (4, 4, 1, 1, 1),
    (2,) * 5, (9, 9, 9),
]
DEEP_SIGNATURES += [sig for sig in _deep_pool_signatures() if sig not in DEEP_SIGNATURES]


def reference_groups(fi):
    """divisor_power_reductions(fi) summed by (i, signature of n / d**i):
    the number of pairs, and for each prime p of fi the total kappa_p(d)."""
    groups = {}
    for d, i, rest in divisor_power_reductions(fi):
        group = groups.setdefault((i, prime_signature(rest)),
                                  [0, {p: 0 for p, _ in fi.factors}])
        group[0] += 1
        for p in group[1]:
            group[1][p] += kappa(p, d)
    return groups


def by_power(table):
    """A table's rows as one multiset of groups per power i."""
    return [Counter(row) for row in table]


def check_table(fi):
    sig = fi.signature
    table = reduction_table(sig)
    assert len(table) == max(sig, default=0) + 1 and table[0] == ()
    assert by_power(table) == by_power(grouped_reduction_table(sig)), sig
    groups = reference_groups(fi)
    assert sum(map(len, table)) == len(groups)
    for i, row in enumerate(table[1:], 1):
        for rest, rest_omega, count, weight in row:
            assert rest is canonical(rest.signature) and rest_omega == rest.big_omega
            ref_count, ref_weights = groups[(i, rest.signature)]
            assert count == ref_count, (sig, i, rest.signature)
            for p, e in fi.factors:
                if e == sig[0]:  # each prime of the largest exponent has the same sum
                    assert weight == ref_weights[p], (sig, i, rest.signature, p)
        # the recursions read index 0 from the unit's group, last in its row
        units = [group for group in row if not group[1]]
        assert units == (list(row[-1:]) if all(e % i == 0 for e in sig) else []), (sig, i)


def test_reduction_table_matches_the_reference_up_to_2000():
    counting.clear_caches()
    assert reduction_table(()) == ((),)  # the unit's table is the one empty row
    for n in range(2, 2001):
        check_table(factorize(n))


@pytest.mark.parametrize("sig", DEEP_SIGNATURES)
def test_reduction_table_matches_the_reference_on_deep_signatures(sig):
    fi = canonical(sig)
    assert fi.signature == sig
    assert [p for p, _ in fi.factors] == first_primes(len(sig))
    check_table(fi)


@st.composite
def signatures(draw, divisors=3000):
    """1 to 6 exponents of at most 24, nonincreasing, with at most
    `divisors` divisor exponent vectors."""
    sig, size = [], 1
    for _ in range(draw(st.integers(1, 6))):
        top = min(24, divisors // size - 1)
        if top < 1:
            break
        e = draw(st.integers(1, top))
        sig.append(e)
        size *= e + 1
    return tuple(sorted(sig, reverse=True))


@settings(max_examples=100, deadline=None)
@given(signatures())
def test_reduction_table_matches_the_references_on_random_signatures(sig):
    counting.clear_caches()
    check_table(canonical(sig))


@pytest.mark.parametrize("sig", [(1, 3), (3, 0)])
def test_reduction_table_refuses_a_bad_signature(sig):
    counting.clear_caches()
    message = f"reduction_table requires a nonincreasing signature of exponents >= 1, got {sig}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reduction_table(sig)
    assert sig not in counting._TABLES


def test_clear_caches_drops_the_tables():
    # every memo of counting and partition_counts is made by counting.cache(),
    # so one clear_caches empties all of them, the last Stirling row included
    counting.clear_caches()
    fi = factorize(36)
    for key, row in cli._FACTOR_ROUTES.items():
        if key[1] != "oracle":
            row(fi, 2, 2)
    pc = partition_counts
    pc.p_kl(10, 3, 2), pc.r_l(10, 2), pc.r_lj(10, 2, 1), pc.bell(40)
    assert cli.check_identity("primorial-stirling", 6, 3).passed
    memos = [value for module in (counting, pc)
             for name, value in vars(module).items()
             if isinstance(value, dict) and not name.startswith("__")]
    assert len(memos) == 16 and all(memos)
    assert sorted(map(id, counting._CACHES)) == sorted(map(id, memos))
    counting.clear_caches()
    assert not any(memos)


def test_canonical_builds_a_sorted_signature_and_refuses_any_other():
    counting.clear_caches()
    fi = canonical((40,))  # 2**40 with no factoring
    assert fi.value == 2**40 and fi.factors == ((2, 40),)
    assert canonical((2, 1)).value == 12 and canonical(factorize(75).signature) is canonical((2, 1))
    with pytest.raises(ValueError, match=re.escape("nonincreasing signature of exponents >= 1, got (1, 2)")):
        canonical((1, 2))
    assert (1, 2) not in counting._CANONICAL
    # an exponent below 1 is refused by canonical itself, not by FactoredInt
    for sig in (3, 0), (0,), (2, -1):
        message = f"canonical requires a nonincreasing signature of exponents >= 1, got {sig}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            canonical(sig)
        assert sig not in counting._CANONICAL


# ---------------------------------------------------------------- conversions

def test_f_k_as_a_difference_of_F():
    assert big_F(FI36, 2) - big_F(FI36, 1) == 4
    assert big_F(FI36, 1) - big_F(FI36, 0) == 1
    assert big_F(FI1, 1) - big_F(FI1, 0) == 0


def test_g_from_G():
    assert g_from_G(FI36, 2) == 3
    assert g_from_G(FI36, 1) == 1


def test_g_from_G_reads_no_G_past_omega_plus_one(monkeypatch):
    # G_0 to G_11, each once and all from the route, and nothing past them
    calls = []
    real = counting.big_G
    monkeypatch.setattr(counting, "big_G", lambda n, k: calls.append(k) or real(n, k))
    fi = factorize(1024)
    assert g_from_G(fi, 45) == 0
    assert sorted(calls) == list(range(fi.big_omega + 2))


def test_g_from_G_equals_the_recursion_past_omega():
    for n in range(1, 3001):
        fi = factorize(n)
        for k in range(0, fi.big_omega + 4):
            assert g_from_G(fi, k) == g_k_rec(fi, k), (n, k)


def test_totals():
    assert f_total(FI36) == 9
    assert f_total(factorize(12)) == 4
    assert f_total(factorize(30)) == 5  # squarefree with 3 primes
    assert g_total(FI36) == 5
    assert g_total(factorize(30)) == 5
    assert g_total(FI_P) == 1


def test_total_routes_agree():
    for n in (2, 12, 30, 36, 96, 97, 360, 1024):
        fi = factorize(n)
        om = fi.big_omega
        assert (
            f_total(fi)
            == counting._k_sum(f_k_rec, fi, om)
            == counting._k_sum(f_k_kappa, fi, om)
            == fedorov_F(fi, om)
        )
        assert g_total(fi) == counting._k_sum(g_k_rec, fi, om) == counting._k_sum(g_k_kappa, fi, om)


# ---------------------------------------------------------------- f_kl / h_l

def test_f_kl_values():
    assert f_kl(FI36, 3, 2) == 2
    assert f_kl(FI36, 2, 2) == 3  # (18,2), (9,4), (12,3)
    assert f_kl(FI1, 0, 0) == 1
    assert f_kl(FI1, 1, 1) == 0
    assert f_kl(FI36, 2, 3) == 0  # l > k


def test_h_l_values():
    assert h_l(FI36, 2) == 6
    assert h_l(FI36, 1) == 2  # (36) and (6,6); fixed by the oracle
    assert h_l(FI36, 3) == 1  # (6,3,2)
    assert h_l(FI1, 0) == 1
    assert h_l(FI1, 1) == 0


def test_fedorov_F_values():
    assert fedorov_F(FI36, 2) == 5
    assert fedorov_F(FI1, 1) == 1
    for k in range(1, 6):
        assert fedorov_F(FI_P, k) == 1


# ---------------------------------------------------------------- properties

def test_route_agreement_sweep():
    # for n >= 2 every route, including k = 0, is defined and must agree
    for n in range(2, 401):
        fi = factorize(n)
        prof = oracle.profile(n)
        read = cli._ORACLE_READS
        for k in range(0, fi.big_omega + 3):
            F = big_F(fi, k)
            assert fedorov_F(fi, k) == F
            assert read["F_k"](prof, k, None) == F
            fk = f_k_rec(fi, k)
            assert f_k_kappa(fi, k) == fk
            assert big_F(fi, k) - big_F(fi, k - 1) == fk
            assert read["f_k"](prof, k, None) == fk
            gk = g_k_rec(fi, k)
            assert g_k_kappa(fi, k) == gk
            assert g_from_G(fi, k) == gk
            assert read["g_k"](prof, k, None) == gk
            assert big_G(fi, k) == read["G_k"](prof, k, None)


def test_two_index_counts_aggregate_consistently():
    # summing the two-index counts over k gives the distinct-value counts,
    # and the diagonal k = l is the all-distinct count
    for n in range(2, 401):
        fi = factorize(n)
        om = fi.big_omega
        for l in range(1, om + 1):
            assert h_l(fi, l) == sum(f_kl(fi, k, l) for k in range(l, om + 1))
        for k in range(1, om + 1):
            assert f_kl(fi, k, k) == g_k_rec(fi, k)


def test_prime_independence_pairs():
    pairs = [(12, 75), (36, 225), (24, 375), (30, 1001), (48, 1875), (72, 200)]
    for a, b in pairs:
        fa, fb = factorize(a), factorize(b)
        assert f_total(fa) == f_total(fb)
        assert g_total(fa) == g_total(fb)
        om = fa.big_omega
        for k in range(0, om + 2):
            assert f_k_rec(fa, k) == f_k_rec(fb, k)
            assert g_k_rec(fa, k) == g_k_rec(fb, k)
            assert big_F(fa, k) == big_F(fb, k)
            assert big_G(fa, k) == big_G(fb, k)
            for l in range(1, k + 1):
                assert f_kl(fa, k, l) == f_kl(fb, k, l)
        for l in range(1, om + 1):
            assert h_l(fa, l) == h_l(fb, l)


def test_big_F_monotone_and_stabilizes():
    # big_F reads a k past Omega as Omega, so fedorov_F, which walks every k,
    # is what checks F_k = F_Omega; at every k <= 20 it is checked at n = 36
    # only, as each signature costs 2**20 compositions there
    for n in range(2, 201):
        fi = factorize(n)
        om = fi.big_omega
        total = f_total(fi)
        ks = range(0, 21 if n == 36 else om + 4)
        for route in (big_F, fedorov_F):
            prev = 0
            for k in ks:
                cur = route(fi, k)
                assert cur >= prev, (route.__name__, n, k)
                prev = cur
                if k >= om:
                    assert cur == total, (route.__name__, n, k)


def test_the_partition_sums_stop_at_omega(within_a_second):
    # F_60(2**20) = F_20(2**20) = p(20), and no 60 distinct parts multiply to
    # 2**20; neither walks the p(60) partitions of 60
    counting.clear_caches()
    fi = factorize(2**20)
    assert big_F(fi, 60) == 627
    assert big_G(fi, 60) == 0


def test_the_partition_sums_keep_no_memo_key_past_omega():
    counting.clear_caches()
    for n in (1, 2, 36, 1024, 30030):
        fi = factorize(n)
        for k in range(0, fi.big_omega + 6):
            for function in ("f", "g", "f_k", "g_k", "F_k", "G_k"):
                cli.evaluate(function, "partition-sum", n, k)
    assert counting._F_SUM and counting._G_SUM
    assert all(k <= sum(sig) for sig, k in counting._F_SUM)
    assert all(k <= sum(sig) + 1 for sig, k in counting._G_SUM)
    counting.clear_caches()


def test_f_kl_on_prime_powers():
    # partitions of 6 with 3 parts and 2 distinct values: (4,1,1), (2,2,2)
    # has one of each shape -> check against direct enumeration
    fi = canonical((6,))
    pp = oracle.partition_profile(6)
    for k in range(1, 7):
        for l in range(1, k + 1):
            assert f_kl(fi, k, l) == pp.get((k, l), 0)


# ---------------------------------------------------------------- signature sweep

SWEEP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
SWEEP_FUNCTIONS = ("f_k", "g_k", "F_k", "G_k")


@st.composite
def signature_assignments(draw):
    """A prime signature with 1-5 primes, exponents 1-8 and Omega <= 14, put
    on two different sets of primes: the factored n are built directly."""
    count = draw(st.integers(1, 5))
    budget = 14
    exponents = []
    for left in range(count - 1, -1, -1):
        e = draw(st.integers(1, min(8, budget - left)))
        exponents.append(e)
        budget -= e
    assignments = []
    for _ in range(2):
        primes = draw(st.permutations(SWEEP_PRIMES))[:count]
        factors = tuple(sorted(zip(primes, exponents)))
        value = 1
        for p, e in factors:
            value *= p**e
        assignments.append(FactoredInt(value, factors))
    assume(assignments[0].value != assignments[1].value)
    return assignments


def route_values(fi):
    """Every route but the oracle of f_k, g_k, F_k and G_k at k = 0..Omega+1,
    from cold caches; fedorov only while its 2**(k-1) compositions stay few.
    Returns the agreed value per (function, k)."""
    cli._clear_all_caches()
    values = {}
    for function in SWEEP_FUNCTIONS:
        for k in range(fi.big_omega + 2):
            got = {
                method: cli._FACTOR_ROUTES[(function, method)](fi, k, None)
                for method in cli.METHODS_FOR[function]
                if method != "oracle" and not (method == "fedorov" and k > 10)
            }
            assert len(set(got.values())) == 1, (function, fi.factors, k, got)
            values[(function, k)] = got.popitem()[1]
    return values


@settings(max_examples=60, deadline=None)
@given(signature_assignments())
def test_routes_agree_on_signatures_built_directly(assignments):
    first, second = assignments
    assert first.signature == second.signature
    assert route_values(first) == route_values(second)


# ---------------------------------------------------------------- exact-rational reference

def _nu_series(beta, m_max):
    """nu_beta(0..m_max) as the coefficients of prod_i (1 - x**i)**(-beta_i)."""
    coeffs = [1] + [0] * m_max
    for i, b in enumerate(beta, 1):
        for _ in range(b):
            for m in range(i, m_max + 1):
                coeffs[m] += coeffs[m - i]
    return coeffs


def _mu(beta, fi):
    series = _nu_series(beta, max(fi.exponents, default=0))
    return prod(series[e] for e in fi.exponents)


def _compositions(k):
    """Compositions of k, one per subset of the k - 1 cut points."""
    if k == 0:
        return [()]
    comps = []
    for mask in range(1 << (k - 1)):
        parts, last = [], 0
        for cut in range(1, k):
            if mask >> (cut - 1) & 1:
                parts.append(cut - last)
                last = cut
        parts.append(k - last)
        comps.append(tuple(parts))
    return comps


def reference_F(fi, k, signed=False):
    total = Fraction(0)
    for parts in oracle.enumerate_partitions(k):
        beta = multiplicity_vector(parts)
        sign = -1 if signed and sum(beta[1::2]) & 1 else 1
        total += sign * Fraction(1, centralizer_order(beta)) * _mu(beta, fi)
    assert total.denominator == 1
    return int(total)


def reference_fedorov(fi, k):
    total = sum(Fraction(1, prefix_product(c)) * _mu(multiplicity_vector(c), fi)
                for c in _compositions(k))
    assert total.denominator == 1
    return int(total)


@st.composite
def factored_signatures(draw):
    """A factored n with 1-4 primes and exponents 1-8, built without factoring."""
    exponents = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    factors = tuple(zip(SWEEP_PRIMES, exponents))
    return FactoredInt(prod(p**e for p, e in factors), factors)


@settings(max_examples=40, deadline=None)
@given(factored_signatures(), st.integers(0, 12))
def test_integer_routes_equal_the_exact_rational_reference(fi, k):
    counting.clear_caches()
    assert big_F(fi, k) == reference_F(fi, k)
    assert big_G(fi, k) == reference_F(fi, k, signed=True)
    assert fedorov_F(fi, k) == reference_fedorov(fi, k)
