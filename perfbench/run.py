"""Closed-loop benchmark of multifact.

One process, one client: each op is sent only after the previous one
returned, every call goes through `multifact.cli.evaluate`, and nothing runs
in parallel.  Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a readable summary goes to stderr.
With `--trace 1` the untraced run is followed by a traced replay of the same
ops, and the metrics are the per-layer ones.  Every time is scaled to a
reference speed of the machine (see speed.py).  See README.md.
"""

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import Reference
from speed import Speed
from tracing import EVALUATE, Tracer, install, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
MIN_OPS = 100  # so that at least 10 latency samples lie beyond p90
FAILURE_KINDS = ("RecursionError", "OracleLimitError", "IntegrityError", "ValueError",
                 "wrong_value")


class Program:
    """Handles on one fresh import of multifact."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "multifact" or m.startswith("multifact.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("multifact.cli")
        self.evaluate = self.cli.evaluate
        self.clear_caches = self.cli._clear_all_caches


def run_op(evaluate, op, tracer=None) -> list:
    values = []
    for call in op:
        if tracer:
            tracer.calls[EVALUATE] += 1
            tracer.enter(EVALUATE)
        try:
            values.append(evaluate(*call))
        finally:
            if tracer:
                tracer.exit()
    return values


def set_up(workload, speed):
    """Import multifact and run the warm-up op, from a clean import each
    time; return the last program and the median set-up time, scaled by
    the machine's speed (see speed.py)."""
    marks, seconds = [], []
    program = None
    for _ in range(SETUP_REPEATS):
        program = None
        gc.collect()
        speed.sample()
        marks.append(len(speed.samples))
        start = perf_counter()
        program = Program()
        run_op(program.evaluate, workload.warmup(program.cli))
        seconds.append(perf_counter() - start)
    speed.sample()
    return program, statistics.median(t * speed.factor(m) for t, m in zip(seconds, marks))


def drive(rounds, program, cold, seconds, min_rounds=0, tracer=None, speed=None):
    """Run whole rounds until `seconds` have passed, MIN_OPS ops ran and
    at least `min_rounds` rounds are done.

    Returns the ops, their outcomes (the list of values, or the name of the
    exception raised), per-op latencies and the busy seconds of the loop,
    both scaled by the machine's speed, and the raw wall seconds of the
    loop.  Busy time is each op with its cache clearing; the calibration
    kernel of `speed` runs between ops and is in neither.
    """
    speed = speed or Speed()
    ops, outcomes, marks, raw, spans = [], [], [], [], []
    start = perf_counter()
    for done, round_ops in enumerate(rounds, 1):
        for op in round_ops:
            marks.append(speed.due())
            cleared = perf_counter()
            if cold:
                program.clear_caches()
                if tracer:
                    tracer.caches_cleared()
            began = perf_counter()
            try:
                outcome = run_op(program.evaluate, op, tracer)
            except Exception as exc:  # every failure is tallied, none stops the run
                outcome = type(exc).__name__
            ended = perf_counter()
            raw.append(ended - began)
            spans.append(ended - cleared)
            if tracer:
                tracer.end_op(len(ops), op, outcome)
            ops.append(op)
            outcomes.append(outcome)
        if perf_counter() - start >= seconds and len(ops) >= MIN_OPS and done >= min_rounds:
            break
    wall = perf_counter() - start
    speed.sample()
    factors = [speed.factor(mark) for mark in marks]
    latencies = [t * f for t, f in zip(raw, factors)]
    return ops, outcomes, latencies, sum(t * f for t, f in zip(spans, factors)), wall


def failures(ops, outcomes, reference) -> list:
    """Per op: None if every value is exact, else the kind of failure."""
    kinds = []
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, str):
            kinds.append(outcome)
        elif all(value == reference.value(f, n, k, l, j)
                 for value, (f, _, n, k, l, j) in zip(outcome, op)):
            kinds.append(None)
        else:
            kinds.append("wrong_value")
    return kinds


def tally(kinds) -> Counter:
    counts = Counter({kind: 0 for kind in FAILURE_KINDS})
    counts["other"] = 0
    for kind in kinds:
        if kind is not None:
            counts[kind if kind in FAILURE_KINDS else "other"] += 1
    return counts


def end_to_end(setup_s, latencies, kinds, busy, peak_rss_mb) -> dict:
    ok = sorted(lat for lat, kind in zip(latencies, kinds) if kind is None)
    if not ok:
        raise SystemExit("no op returned an exact value; no latency to report")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "op_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "op_p90_ms": (ok[math.ceil(0.9 * len(ok)) - 1] * 1e3, "ms"),
        "ok_frac": (len(ok) / len(kinds), "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def start_trace(workload, program) -> Tracer:
    """Restore the state the untraced run started in, then wrap the layers."""
    program.clear_caches()
    if not workload.cold:
        run_op(program.evaluate, workload.warmup(program.cli))
    tracer = Tracer()
    install(tracer)
    return tracer


def trace_metrics(tracer, kinds, traced_kinds, ops_per_s, busy) -> dict:
    traced_rate = traced_kinds.count(None) / busy
    metrics = layer_metrics(tracer)
    metrics["trace.ops_per_s_untraced"] = (ops_per_s, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.slowdown"] = (ops_per_s / traced_rate if traced_rate else 0.0, "ratio")
    metrics["trace.outcome_mismatches"] = (
        sum(a != b for a, b in zip(kinds, traced_kinds)), "count")
    metrics["failed_frac"] = (1 - kinds.count(None) / len(kinds), "fraction")
    for kind, n in tally(kinds).items():
        metrics[f"failed.{kind}"] = (n, "count")
    return metrics


def write_spans(tracer, name, seed):
    TRACE_DIR.mkdir(exist_ok=True)
    with open(TRACE_DIR / f"{name}-seed{seed}.jsonl", "w") as out:
        for record in tracer.records:
            out.write(json.dumps(record) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multifact" / "__init__.py").is_file():
        print(f"error: no multifact sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    speed = Speed()
    program, setup_s = set_up(workload, speed)
    ops, outcomes, latencies, busy, wall = drive(
        workload.rounds(args.seed, program.cli), program, workload.cold, args.seconds, workload.min_rounds,
        speed=speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = Reference(call for op in ops for call in op)
    kinds = failures(ops, outcomes, reference)
    counts = tally(kinds)
    metrics = end_to_end(setup_s, latencies, kinds, busy, peak_rss_mb)
    samples = kinds.count(None)
    correct = counts["wrong_value"] == 0

    print(f"workload {args.workload}  seed {args.seed}  ops attempted {len(ops)}  "
          f"in {wall:.3f} s wall, {busy:.3f} s scaled to the reference speed "
          f"({len(speed.samples)} speed samples)", file=sys.stderr)
    print("failures: " + "  ".join(f"{k} {v}" for k, v in counts.items())
          + f"  failed_frac {(len(ops) - samples) / len(ops):.6f}", file=sys.stderr)
    print(f"latency samples (exact ops) {samples}, beyond p90 "
          f"{samples - math.ceil(0.9 * samples)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:.6g} {unit}", file=sys.stderr)

    if args.trace:
        # drive() runs at the same stack depth as above, so the deep partition
        # recursions hit the recursion limit on exactly the same ops
        tracer = start_trace(workload, program)
        traced_ops, traced_outcomes, _, traced_busy, _ = drive(
            [ops], program, workload.cold, 0.0, tracer=tracer, speed=speed)
        traced_kinds = failures(traced_ops, traced_outcomes, reference)
        write_spans(tracer, args.workload, args.seed)
        metrics = trace_metrics(tracer, kinds, traced_kinds, metrics["ops_per_s"][0],
                                traced_busy)
        mismatches = metrics["trace.outcome_mismatches"][0]
        correct = correct and mismatches == 0 and "wrong_value" not in traced_kinds
        print(f"traced replay: slowdown {metrics['trace.slowdown'][0]:.3f}x, "
              f"outcome mismatches {mismatches}", file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(ops) - samples,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
