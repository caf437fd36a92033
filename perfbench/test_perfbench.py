"""Tests of the benchmark itself: generators, the exact-value gate and tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
import sys
from itertools import islice
from pathlib import Path

import pytest

import run
from reference import FACTOR_FUNCTIONS, Reference, signature
from speed import REFERENCE_S, Speed
from tracing import Tracer, install, layer_metrics
from workloads import (DEEP_POOL, LARGE_POOL, N_LIMIT, R_L_MAX, R_LJ_MAX, SEQ_OFFSET_BASE,
                       SEQ_OFFSET_SPAN, WORKLOADS, with_seeded_primes)

sys.path.insert(0, str(run.SRC))
from multifact import cli  # noqa: E402  (the checkout's sources, as run.py imports them)

METHODS_FOR = cli.METHODS_FOR


def first_rounds(name, seed, count=3):
    return list(islice(WORKLOADS[name].rounds(seed, cli), count))


def calls_of(rounds):
    return [call for ops in rounds for op in ops for call in op]


@pytest.fixture
def program():
    return run.Program()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    assert first_rounds(name, 7) == first_rounds(name, 7)
    assert first_rounds(name, 7) != first_rounds(name, 8)


def test_sequence_is_one_whole_session():
    rounds = list(WORKLOADS["sequence"].rounds(4, cli))
    assert len(rounds) == WORKLOADS["sequence"].min_rounds
    r_lj = [call for call in calls_of(rounds) if call[0] == "r_lj"]
    assert max(call[2] for call in r_lj) == R_LJ_MAX and len(r_lj) == 3 * R_LJ_MAX


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_emits_valid_evaluate_calls(name):
    limit = N_LIMIT if name != "sequence" else SEQ_OFFSET_BASE + 2 * SEQ_OFFSET_SPAN
    for function, method, n, k, l, j in calls_of(first_rounds(name, 3)):
        assert method in METHODS_FOR[function]
        assert 1 <= n <= limit


def test_cross_check_runs_every_route_the_program_has():
    for ops in first_rounds("cross-check", 3, count=2):
        for op in ops:
            function = op[0][0]
            assert tuple(call[1] for call in op) == METHODS_FOR[function]


def test_seeded_primes_keep_the_signature():
    rng = random.Random(0)
    for _, _, sig, *_ in DEEP_POOL + LARGE_POOL:
        for _ in range(5):
            n = with_seeded_primes(rng, sig)
            assert n <= N_LIMIT and signature(n) == tuple(sorted(sig, reverse=True))


def test_signature_matches_the_program_factorization(program):
    from multifact.arith import factorize, prime_signature

    rng = random.Random(1)
    for n in [1, 2, 97, 10**12, 2**39, 1081080] + [rng.randrange(10**12, 10**12 + 10**9)
                                                    for _ in range(200)]:
        assert signature(n) == prime_signature(factorize(n))


def routes_agree(program, reference, calls, with_oracle=False):
    """Every reference entry for `calls` equals every route that finishes in
    seconds: fedorov only while its 2**(k-1) compositions stay few, and the
    oracle only where asked.  Each entry meets at least one program route."""
    for function, _, n, k, l, j in {c[:1] + (None,) + c[2:] for c in calls}:
        expected = reference.value(function, n, k, l, j)
        checked = 0
        for method in METHODS_FOR[function]:
            if method == "oracle" and not with_oracle:
                continue
            if method == "fedorov" and (sum(signature(n)) if function == "f" else k) > 15:
                continue
            assert program.evaluate(function, method, n, k, l, j) == expected, \
                (function, method, n, k, l, j)
            checked += 1
        assert checked >= 1


@pytest.mark.parametrize("name", ["deep-signature", "large-index"])
def test_reference_agrees_with_every_route_on_the_pool(program, name):
    calls = calls_of(first_rounds(name, 5, count=1))
    routes_agree(program, Reference(calls), calls)


def test_reference_agrees_with_every_route_and_oracle_on_cross_check(program):
    calls = calls_of(first_rounds("cross-check", 5, count=2))
    routes_agree(program, Reference(calls), calls, with_oracle=True)


def test_reference_agrees_on_a_sequence_window(program):
    calls = [c for c in calls_of(first_rounds("sequence", 5, count=100))
             if c[0] in FACTOR_FUNCTIONS]
    routes_agree(program, Reference(calls), calls)


def test_partition_reference_agrees_with_the_recursions(program):
    """Two program recursions and the reference's dynamic programs agree on
    every partition-side value the sequence workload asks for, past the n
    where r_lj exhausts the default recursion limit."""
    calls = [c for c in calls_of(first_rounds("sequence", 0, count=R_LJ_MAX // 2))
             if c[0] not in FACTOR_FUNCTIONS]
    reference = Reference(calls)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        for function, method, n, k, l, j in calls:
            assert program.evaluate(function, method, n, k, l, j) == \
                reference.value(function, n, k, l, j)
            if function == "r_lj" and n <= R_L_MAX:
                assert program.evaluate("r_l", "recursion", n, None, l, None) == \
                    reference.value("r_lj", n, None, l, 1)
    finally:
        sys.setrecursionlimit(limit)


def test_wrong_value_and_exception_count_as_failed():
    ops = [(("f", "recursion", 36, None, None, None),),
           (("f_k", "recursion", 36, 2, None, None),),
           (("r_lj", "recursion", 10, None, 2, 1),)]

    class Stub:
        def clear_caches(self):
            pass

        def evaluate(self, function, method, n, k, l, j):
            if function == "r_lj":
                raise RecursionError("planted")
            return {"f": 9, "f_k": 4}[function]

    ran, outcomes, latencies, _, _ = run.drive([ops], Stub(), True, 0.0)
    reference = Reference(call for op in ran for call in op)
    assert run.failures(ran, outcomes, reference) == [None, None, "RecursionError"]

    reference.table[reference.key("f", 36, None, None, None)] = 10  # planted wrong value
    kinds = run.failures(ran, outcomes, reference)
    assert kinds == ["wrong_value", None, "RecursionError"]
    counts = run.tally(kinds)
    assert counts["wrong_value"] == counts["RecursionError"] == 1
    metrics = run.end_to_end(0.1, latencies, kinds, 1.0, 10.0)
    assert metrics["ok_frac"][0] == pytest.approx(1 / 3)
    assert metrics["ops_per_s"][0] == pytest.approx(1.0)


def test_traced_run_fails_the_same_ops_as_untraced(program):
    """r_lj near the recursion limit: some ops fail, and tracing moves none."""
    r_lj_ops = [(("r_lj", "recursion", n, None, 1, 1),) for n in range(800, 1040, 8)]
    ops = list(r_lj_ops)
    ops += [(("f_k", "kappa-recursion", 2**6 * 3**4 * 5**2, 5, None, None),),
            (("F_k", "fedorov", 2**8, 10, None, None),),
            (("f", "oracle", 5040, None, None, None),)]
    reference = Reference(call for op in ops for call in op)
    _, outcomes, _, _, _ = run.drive([ops], program, True, 0.0)
    kinds = run.failures(ops, outcomes, reference)
    assert "RecursionError" in kinds and None in kinds and "wrong_value" not in kinds

    tracer = Tracer()
    install(tracer)
    _, traced_outcomes, _, _, _ = run.drive([ops], program, True, 0.0, tracer=tracer)
    assert run.failures(ops, traced_outcomes, reference) == kinds

    metrics = {name: value for name, (value, _) in layer_metrics(tracer).items()}
    assert metrics["cli.evaluate.calls"] == len(ops)
    assert metrics["partition_counts.r_lj.calls"] == len(r_lj_ops)
    assert metrics["partition_counts.recursion_errors"] == kinds.count("RecursionError")
    assert 0 < metrics["counting.f_k_kappa.distinct_keys"] <= metrics["counting.f_k_kappa.calls"]
    assert metrics["arith.kappa.calls"] > 0 and metrics["partitions.compositions_of.yielded"] > 0
    assert metrics["oracle.factorizations_enumerated"] == reference.value("f", 5040)
    assert all(value >= 0 for value in metrics.values())
    assert len(tracer.records) == len(ops)


MEMOS = {"f_k_rec": "_FK_REC", "g_k_rec": "_GK_REC", "f_k_kappa": "_FK_KAP",
         "g_k_kappa": "_GK_KAP", "f_kl": "_FKL", "h_l": "_HL", "big_F": "_F_SUM",
         "big_G": "_G_SUM", "fedorov_F": "_FED"}


def test_distinct_keys_are_the_memo_misses(program):
    """From cold caches, each route's distinct keys are the entries its memo
    holds afterwards, and its lookups leave out the calls that return early."""
    n = 2**4 * 3**3 * 5**2
    calls = [("f", "recursion", n), ("g", "recursion", n), ("f", "kappa-recursion", n),
             ("g", "kappa-recursion", n), ("f_kl", "recursion", n, 5, 3),
             ("h_l", "recursion", n, None, 3), ("F_k", "partition-sum", n, 6),
             ("G_k", "partition-sum", n, 6), ("F_k", "fedorov", n, 6)]
    tracer = Tracer()
    install(tracer)
    program.clear_caches()
    for call in calls:
        program.evaluate(*call)
    metrics = {name: value for name, (value, _) in layer_metrics(tracer).items()}
    counting = sys.modules["multifact.counting"]
    for route, memo in MEMOS.items():
        assert metrics[f"counting.{route}.distinct_keys"] == len(getattr(counting, memo)), route
    lookups = metrics["counting.memo_lookups"]
    assert 0 < lookups < sum(metrics[f"counting.{route}.calls"] for route in MEMOS)
    misses = sum(metrics[f"counting.{route}.distinct_keys"] for route in MEMOS)
    assert metrics["counting.memo_hit_ratio"] == pytest.approx(1 - misses / lookups)


def test_speed_scales_times_by_the_kernel_samples_around_them():
    speed = Speed()
    speed.samples = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032]
    assert speed.factor(3) == REFERENCE_S / 0.004  # median of the first five
    assert speed.factor(6) == REFERENCE_S / 0.016  # the last three, none after
    assert speed.due() == 7 and speed.samples[-1] > 0


def last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())


def test_run_prints_the_end_to_end_metrics(capsys):
    assert run.main(["--workload", "large-index", "--seed", "2", "--seconds", "0.01"]) == 0
    result = last_json_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert result["correct"] and result["attempted"] >= run.MIN_OPS


def test_traced_run_prints_the_per_layer_metrics(capsys):
    args = ["--workload", "cross-check", "--seed", "2", "--seconds", "0.01", "--trace", "1"]
    assert run.main(args) == 0
    result = last_json_line(capsys)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["correct"] and metrics["trace.outcome_mismatches"] == 0
    assert metrics["oracle.factorizations_enumerated"] > 0
    assert metrics["cli.evaluate.calls"] > result["attempted"]  # every route of each op


def test_run_refuses_a_checkout_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "sequence", "--seed", "2", "--seconds", "1"]) == 2
