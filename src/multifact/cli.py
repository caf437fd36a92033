"""Command-line front end: single-value queries, b-file sequence export,
cross-method verification sweeps, and micro-benchmarks.

Exit codes: 0 success, 1 verification or internal integrity failure, 2 usage
error.  All stdout is deterministic for fixed arguments, except the timing
columns of ``bench``.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import counting, oracle, partition_counts, partitions
from .arith import FactoredInt, IntegrityError, factorize, prime_power
from .counting import METHODS
from .oracle import OracleLimitError
from .partition_counts import check_identity

# reject k beyond big_omega + margin: the partition count p(k) explodes and
# F_k has already stabilized at f(n) for every k >= big_omega anyway
K_QUERY_CAP_MARGIN = 64

FACTOR_FUNCTIONS = ("f", "g", "f_k", "g_k", "F_k", "G_k", "h_l", "f_kl")
PARTITION_FUNCTIONS = ("p_kl", "r_l", "r_lj", "stirling2", "bell")
ALL_FUNCTIONS = FACTOR_FUNCTIONS + PARTITION_FUNCTIONS

# which of the k, l, j flags each function requires
NEEDS = {
    "f": "",
    "g": "",
    "f_k": "k",
    "g_k": "k",
    "F_k": "k",
    "G_k": "k",
    "h_l": "l",
    "f_kl": "kl",
    "p_kl": "kl",
    "r_l": "l",
    "r_lj": "lj",
    "stirling2": "k",
    "bell": "",
}

METHODS_FOR = {
    "f": ("recursion", "partition-sum", "kappa-recursion", "fedorov", "oracle"),
    "g": ("recursion", "partition-sum", "kappa-recursion", "oracle"),
    "f_k": ("recursion", "partition-sum", "kappa-recursion", "fedorov", "oracle"),
    "g_k": ("recursion", "partition-sum", "kappa-recursion", "oracle"),
    "F_k": ("partition-sum", "fedorov", "recursion", "kappa-recursion", "oracle"),
    "G_k": ("partition-sum", "recursion", "oracle"),
    "h_l": ("recursion", "oracle"),
    "f_kl": ("recursion", "oracle"),
    "p_kl": ("recursion", "oracle"),
    "r_l": ("recursion", "oracle"),
    "r_lj": ("recursion", "oracle"),
    "stirling2": ("recursion",),
    "bell": ("recursion",),
}

DEFAULT_METHOD = {
    name: ("partition-sum" if name in ("F_k", "G_k") else "recursion")
    for name in ALL_FUNCTIONS
}

SUITES = ("routes", "identities", "oracle", "all")


class UsageError(Exception):
    """Bad command-line arguments; maps to exit code 2."""


@dataclass(frozen=True)
class OutputRecord:
    """One computed value plus the query that produced it."""

    function: str
    n: int
    k: int | None
    l: int | None
    j: int | None
    value: int
    method: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "function": self.function,
                "n": str(self.n),
                "k": self.k,
                "l": self.l,
                "j": self.j,
                "value": str(self.value),
                "method": self.method,
            }
        )


# --------------------------------------------------------------------------
# evaluation dispatch

def _oracle_factor_value(function: str, fi: FactoredInt, k, l) -> int:
    if fi.value == 1:
        return {
            "f": 1,
            "g": 1,
            "f_k": int(k == 0),
            "g_k": int(k == 0),
            "F_k": 1,
            "G_k": int(k in (0, 1)),
            "h_l": int(l == 0),
            "f_kl": int(k == 0 and l == 0),
        }[function]
    prof = oracle.profile(fi.value)
    if function == "f":
        return prof.f
    if function == "g":
        return prof.g
    if function == "f_k":
        return prof.f_k.get(k, 0)
    if function == "g_k":
        return prof.g_k.get(k, 0)
    if function == "F_k":
        return prof.F_k(k)
    if function == "G_k":
        return prof.G_k(k) if k else 0
    if function == "h_l":
        return prof.h_l.get(l, 0)
    return prof.f_kl.get((k, l), 0)


def _oracle_partition_value(function: str, n: int, k, l, j) -> int:
    if function == "p_kl":
        if n == 0:
            return int(k == 0 and l == 0)
        return oracle.partition_profile(n).get((k, l), 0)
    if function == "r_l":
        if n == 0:
            return int(l == 0)
        return sum(v for (_, ll), v in oracle.partition_profile(n).items() if ll == l)
    # r_lj: parts >= j with exactly l distinct values
    if n == 0:
        return int(l == 0)
    return sum(
        1
        for parts in oracle.enumerate_partitions(n)
        if len(set(parts)) == l and (not parts or min(parts) >= j)
    )


_FACTOR_ROUTES = {
    ("f", "recursion"): lambda fi, k, l: counting.f_total_rec(fi),
    ("f", "partition-sum"): lambda fi, k, l: counting.f_total(fi),
    ("f", "kappa-recursion"): lambda fi, k, l: counting.f_total_kappa(fi),
    ("f", "fedorov"): lambda fi, k, l: counting.f_total_fedorov(fi),
    ("g", "recursion"): lambda fi, k, l: counting.g_total_rec(fi),
    ("g", "partition-sum"): lambda fi, k, l: counting.g_total(fi),
    ("g", "kappa-recursion"): lambda fi, k, l: counting.g_total_kappa(fi),
    ("f_k", "recursion"): lambda fi, k, l: counting.f_k_rec(fi, k),
    ("f_k", "partition-sum"): lambda fi, k, l: counting.f_from_F(fi, k),
    ("f_k", "kappa-recursion"): lambda fi, k, l: counting.f_k_kappa(fi, k),
    ("f_k", "fedorov"): lambda fi, k, l: (
        counting.fedorov_F(fi, k) - counting.fedorov_F(fi, k - 1)
        if k >= 1
        else counting.f_from_F(fi, k)
    ),
    ("g_k", "recursion"): lambda fi, k, l: counting.g_k_rec(fi, k),
    ("g_k", "partition-sum"): lambda fi, k, l: counting.g_from_G(fi, k),
    ("g_k", "kappa-recursion"): lambda fi, k, l: counting.g_k_kappa(fi, k),
    ("F_k", "partition-sum"): lambda fi, k, l: counting.big_F(fi, k),
    ("F_k", "fedorov"): lambda fi, k, l: counting.fedorov_F(fi, k),
    ("F_k", "recursion"): lambda fi, k, l: (
        int(fi.value == 1) + sum(counting.f_k_rec(fi, i) for i in range(1, k + 1))
    ),
    ("F_k", "kappa-recursion"): lambda fi, k, l: (
        int(fi.value == 1) + sum(counting.f_k_kappa(fi, i) for i in range(1, k + 1))
    ),
    ("G_k", "partition-sum"): lambda fi, k, l: counting.big_G(fi, k),
    ("G_k", "recursion"): lambda fi, k, l: (
        counting.g_k_rec(fi, k) + counting.g_k_rec(fi, k - 1)
        if k >= 1
        else int(fi.value == 1)
    ),
    ("h_l", "recursion"): lambda fi, k, l: counting.h_l(fi, l),
    ("f_kl", "recursion"): lambda fi, k, l: counting.f_kl(fi, k, l),
}

_PARTITION_ROUTES = {
    ("p_kl", "recursion"): lambda n, k, l, j: partition_counts.p_kl(n, k, l),
    ("r_l", "recursion"): lambda n, k, l, j: partition_counts.r_l(n, l),
    ("r_lj", "recursion"): lambda n, k, l, j: partition_counts.r_lj(n, l, j),
    ("stirling2", "recursion"): lambda n, k, l, j: partition_counts.stirling2(n, k),
    ("bell", "recursion"): lambda n, k, l, j: partition_counts.bell(n),
}


def _factor_value(function: str, method: str, fi: FactoredInt, k, l) -> int:
    if method == "oracle":
        return _oracle_factor_value(function, fi, k, l)
    return _FACTOR_ROUTES[(function, method)](fi, k, l)


def evaluate(function: str, method: str, n: int, k=None, l=None, j=None) -> int:
    """Compute one value of one function by one method; n is a plain int."""
    if function in FACTOR_FUNCTIONS:
        return _factor_value(function, method, factorize(n), k, l)
    if method == "oracle":
        return _oracle_partition_value(function, n, k, l, j)
    return _PARTITION_ROUTES[(function, method)](n, k, l, j)


def _validate_query(function: str, n: int, k, l, j, method) -> FactoredInt | None:
    """Check one query's arguments; return n factored for a factorization
    function (None for a partition function)."""
    needs = NEEDS[function]
    for flag, value, least in (("k", k, 0), ("l", l, 0), ("j", j, 1)):
        if flag in needs and value is None:
            raise UsageError(f"{function} requires --{flag}")
        if flag not in needs and value is not None:
            raise UsageError(f"{function} does not take --{flag}")
        if value is not None and value < least:
            raise UsageError(f"--{flag} must be >= {least}")
    if method is not None and method not in METHODS_FOR[function]:
        raise UsageError(
            f"{function} supports methods {', '.join(METHODS_FOR[function])}"
        )
    if function not in FACTOR_FUNCTIONS:
        if n < 0:
            raise UsageError(f"{function} requires n >= 0")
        return None
    if n < 1:
        raise UsageError(f"{function} requires n >= 1")
    fi = factorize(n)
    if k is not None and k > fi.big_omega + K_QUERY_CAP_MARGIN:
        raise UsageError(
            f"k={k} exceeds the query cap (number of prime factors + "
            f"{K_QUERY_CAP_MARGIN}); the value equals that of f at any such k"
        )
    return fi


def _clear_all_caches() -> None:
    counting.clear_caches()
    partitions.clear_caches()
    partition_counts.clear_caches()


# --------------------------------------------------------------------------
# compute

def cmd_compute(args) -> int:
    function = args.function
    fi = _validate_query(function, args.n, args.k, args.l, args.j, args.method)
    if args.all_methods:
        methods = METHODS_FOR[function]
    else:
        methods = (args.method or DEFAULT_METHOD[function],)
    records = []
    skipped = []  # one "<method> skipped: <reason>" line per method over its budget
    for m in methods:
        try:
            if fi is None:
                value = evaluate(function, m, args.n, args.k, args.l, args.j)
            else:
                value = _factor_value(function, m, fi, args.k, args.l)
        except OracleLimitError as exc:
            if not args.all_methods:
                raise
            skipped.append(f"{m} skipped: {exc}")
            continue
        records.append(OutputRecord(function, args.n, args.k, args.l, args.j, value, m))
    if args.format == "json":
        for rec in records:
            print(rec.to_json())
        for line in skipped:
            print(line, file=sys.stderr)
    elif args.all_methods:
        for rec in records:
            print(f"{rec.method} {rec.value}")
        for line in skipped:
            print(line)
    else:
        print(records[0].value)
    if args.all_methods:
        values = {rec.value for rec in records}
        if len(values) > 1:
            print("MISMATCH: methods disagree", file=sys.stderr)
            return 1
        if args.format != "json":
            print(f"consistent: {len(records)} methods agree")
    return 0


# --------------------------------------------------------------------------
# bfile

def cmd_bfile(args) -> int:
    function = args.function
    if args.max < 2:
        raise UsageError("--max must be >= 2")
    _validate_query(function, max(args.max, 1), args.k, args.l, args.j, args.method)
    method = args.method or DEFAULT_METHOD[function]
    start = 2 if function in FACTOR_FUNCTIONS else 1
    print(f"offset {start}", file=sys.stderr)
    out = sys.stdout
    for n in range(start, args.max + 1):
        value = evaluate(function, method, n, args.k, args.l, args.j)
        out.write(f"{n} {value}\n")
    return 0


# --------------------------------------------------------------------------
# verify

def _check(failures, checks, function, n, k, l, values: dict) -> int:
    """Record one agreement check; values maps method name to value."""
    if len(set(values.values())) > 1:
        failures.append((function, n, k, l, values))
    return checks + 1


def _routes_worker(n: int, k_max: int):
    failures: list = []
    checks = 0
    fi = factorize(n)
    top = min(fi.big_omega + 2, k_max)
    for k in range(0, top + 1):
        checks = _check(
            failures, checks, "F_k", n, k, None,
            {m: _FACTOR_ROUTES[("F_k", m)](fi, k, None)
             for m in ("partition-sum", "fedorov", "recursion", "kappa-recursion")},
        )
        checks = _check(
            failures, checks, "f_k", n, k, None,
            {m: _FACTOR_ROUTES[("f_k", m)](fi, k, None)
             for m in ("recursion", "kappa-recursion", "partition-sum", "fedorov")},
        )
        checks = _check(
            failures, checks, "g_k", n, k, None,
            {m: _FACTOR_ROUTES[("g_k", m)](fi, k, None)
             for m in ("recursion", "kappa-recursion", "partition-sum")},
        )
        if k >= 1:
            checks = _check(
                failures, checks, "G_k", n, k, None,
                {m: _FACTOR_ROUTES[("G_k", m)](fi, k, None)
                 for m in ("partition-sum", "recursion")},
            )
    checks = _check(
        failures, checks, "f", n, None, None,
        {m: _FACTOR_ROUTES[("f", m)](fi, None, None)
         for m in ("recursion", "partition-sum", "kappa-recursion", "fedorov")},
    )
    checks = _check(
        failures, checks, "g", n, None, None,
        {m: _FACTOR_ROUTES[("g", m)](fi, None, None)
         for m in ("recursion", "partition-sum", "kappa-recursion")},
    )
    return checks, failures


def _routes_partition_worker(n: int):
    # partition-side route agreement: two recursions for r_l, plus the
    # prime-power specializations of the factorization recursions
    failures: list = []
    checks = 0
    fi2 = prime_power(2, n)
    for l in range(0, 9):
        checks = _check(
            failures, checks, "r_l", n, None, l,
            {
                "recursion": partition_counts.r_l(n, l),
                "parts-floor-recursion": partition_counts.r_lj(n, l, 1),
                "prime-power": counting.h_l(fi2, l),
            },
        )
    for k in range(1, n + 1):
        for l in range(1, min(k, 8) + 1):
            checks = _check(
                failures, checks, "p_kl", n, k, l,
                {
                    "recursion": partition_counts.p_kl(n, k, l),
                    "prime-power": counting.f_kl(fi2, k, l),
                },
            )
    return checks, failures


def _oracle_worker(n: int):
    failures: list = []
    checks = 0
    fi = factorize(n)
    prof = oracle.profile(n)
    om = fi.big_omega
    checks = _check(failures, checks, "f", n, None, None,
                    {"recursion": counting.f_total_rec(fi), "oracle": prof.f})
    checks = _check(failures, checks, "g", n, None, None,
                    {"recursion": counting.g_total_rec(fi), "oracle": prof.g})
    for k in range(1, om + 3):
        checks = _check(failures, checks, "f_k", n, k, None,
                        {"recursion": counting.f_k_rec(fi, k),
                         "oracle": prof.f_k.get(k, 0)})
        checks = _check(failures, checks, "g_k", n, k, None,
                        {"recursion": counting.g_k_rec(fi, k),
                         "oracle": prof.g_k.get(k, 0)})
        checks = _check(failures, checks, "F_k", n, k, None,
                        {"partition-sum": counting.big_F(fi, k),
                         "oracle": prof.F_k(k)})
        checks = _check(failures, checks, "G_k", n, k, None,
                        {"partition-sum": counting.big_G(fi, k),
                         "oracle": prof.G_k(k)})
        for l in range(1, k + 1):
            checks = _check(failures, checks, "f_kl", n, k, l,
                            {"recursion": counting.f_kl(fi, k, l),
                             "oracle": prof.f_kl.get((k, l), 0)})
    for l in range(1, om + 2):
        checks = _check(failures, checks, "h_l", n, None, l,
                        {"recursion": counting.h_l(fi, l),
                         "oracle": prof.h_l.get(l, 0)})
    return checks, failures


def _oracle_partition_worker(n: int):
    failures: list = []
    checks = 0
    pp = oracle.partition_profile(n)
    for l in range(1, 9):
        checks = _check(
            failures, checks, "r_l", n, None, l,
            {"recursion": partition_counts.r_l(n, l),
             "oracle": sum(v for (_, ll), v in pp.items() if ll == l)},
        )
    for k in range(1, n + 1):
        for l in range(1, min(k, 8) + 1):
            checks = _check(
                failures, checks, "p_kl", n, k, l,
                {"recursion": partition_counts.p_kl(n, k, l),
                 "oracle": pp.get((k, l), 0)},
            )
    return checks, failures


def _identities_worker(n: int):
    failures: list = []
    checks = 0
    reports = [check_identity("bell-partition-sum", n),
               check_identity("choose2-plus-one", n)]
    for k in range(1, n + 1):
        reports.append(check_identity("stirling-partial-sum", n, k))
        reports.append(check_identity("stirling-adjacent-sum", n, k))
    if n <= 12:
        reports.append(check_identity("composition-aggregate", n))
    if n <= 10:
        reports.append(check_identity("primorial-bell", n))
        for k in range(1, n + 1):
            reports.append(check_identity("primorial-stirling", n, k))
    for rep in reports:
        checks += 1
        if not rep.passed:
            failures.append((rep.identity, rep.n, rep.k, None,
                             {"lhs": rep.lhs, "rhs": rep.rhs}))
    return checks, failures


def _run_suite(suite: str, max_n: int, k_max: int, threads: int):
    if suite == "routes":
        jobs = [(_routes_worker, (n, k_max)) for n in range(2, max_n + 1)]
        jobs += [(_routes_partition_worker, (n,)) for n in range(1, min(max_n, 40) + 1)]
    elif suite == "oracle":
        jobs = [(_oracle_worker, (n,)) for n in range(2, max_n + 1)]
        jobs += [(_oracle_partition_worker, (n,)) for n in range(1, min(max_n, 40) + 1)]
    else:  # identities; bounds keep p(n) partition sums and primorials desk-scale
        jobs = [(_identities_worker, (n,)) for n in range(1, min(max_n, 20) + 1)]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda job: job[0](*job[1]), jobs))
    else:
        results = [fn(*fnargs) for fn, fnargs in jobs]
    checks = sum(r[0] for r in results)
    failures = [f for r in results for f in r[1]]
    return checks, failures


def cmd_verify(args) -> int:
    env_threads = os.environ.get("MULTIFACT_THREADS")
    if env_threads is not None:
        source, threads = "MULTIFACT_THREADS", int(env_threads)
    else:
        source, threads = "--threads", args.threads
    if threads < 1:
        raise UsageError(f"{source} must be >= 1, got {threads}")
    selected = ("routes", "identities", "oracle") if args.suite == "all" else (args.suite,)
    first_failure = None
    failed = 0
    for suite in selected:
        checks, failures = _run_suite(suite, args.max, args.k_max, threads)
        failed += len(failures)
        print(f"{suite}: {checks - len(failures)}/{checks} pass")
        if failures and first_failure is None:
            first_failure = failures[0]
    if first_failure is not None:
        function, n, k, l, values = first_failure
        detail = " ".join(f"{m}={v}" for m, v in sorted(values.items()))
        print(f"first counterexample: {function} n={n} k={k} l={l}: {detail}",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    function = args.function
    _validate_query(function, args.n, args.k, args.l, args.j, None)
    if args.method:
        for m in args.method:
            if m not in METHODS_FOR[function]:
                raise UsageError(
                    f"{function} supports methods {', '.join(METHODS_FOR[function])}"
                )
        methods = tuple(args.method)
    else:
        methods = METHODS_FOR[function]
    if args.repeat < 1:
        raise UsageError("--repeat must be >= 1")

    rows = []  # (method, value or None if skipped, the rest of its line)
    for method in methods:
        times = []
        try:
            for _ in range(args.repeat):
                _clear_all_caches()
                t0 = time.perf_counter()
                value = evaluate(function, method, args.n, args.k, args.l, args.j)
                times.append(time.perf_counter() - t0)
        except OracleLimitError as exc:
            rows.append((method, None, f"skipped: {exc}"))
            continue
        best, mean = min(times), sum(times) / len(times)
        rows.append((method, value, f"{value!s:<16} {best:>12.6f} {mean:>12.6f}"))

    values = {value for _, value, _ in rows if value is not None}
    if len(values) > 1:
        print("MISMATCH: methods disagree before timing is meaningful",
              file=sys.stderr)
        for method, value, _ in rows:
            if value is not None:
                print(f"  {method} = {value}", file=sys.stderr)
        return 1
    print(f"{'method':<18} {'value':<16} {'best_s':>12} {'mean_s':>12}")
    for method, _, rest in rows:
        print(f"{method:<18} {rest}")
    return 0


# --------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multifact",
        description=(
            "Exact counts of unordered factorizations and related partition "
            "counts, by independently verifiable methods."
        ),
        epilog=(
            "functions: f (factorizations into parts >= 2), g (distinct parts), "
            "f_k / g_k (exactly k parts / k distinct parts), F_k / G_k (parts >= 1 "
            "allowed), h_l (exactly l different part values), f_kl (k parts, l "
            "different), p_kl / r_l / r_lj (partition-side analogues), "
            "stirling2, bell."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_indices(p):
        p.add_argument("--k", type=int, default=None, help="part-count index")
        p.add_argument("--l", type=int, default=None, help="distinct-value index")
        p.add_argument("--j", type=int, default=None, help="minimum part size index")

    p_compute = sub.add_parser("compute", help="compute one value")
    p_compute.add_argument("function", choices=ALL_FUNCTIONS)
    p_compute.add_argument("n", type=int)
    add_indices(p_compute)
    p_compute.add_argument("--method", choices=METHODS, default=None)
    p_compute.add_argument("--all-methods", action="store_true",
                           help="compute by every applicable method and verify agreement")
    p_compute.add_argument("--format", choices=("text", "json"), default="text",
                           help="text: bare decimal value; json: one record per line")
    p_compute.set_defaults(handler=cmd_compute)

    p_bfile = sub.add_parser(
        "bfile", help="emit 'n value' lines for n up to --max (b-file convention)")
    p_bfile.add_argument("function", choices=ALL_FUNCTIONS)
    p_bfile.add_argument("--max", type=int, required=True)
    add_indices(p_bfile)
    p_bfile.add_argument("--method", choices=METHODS, default=None)
    p_bfile.set_defaults(handler=cmd_bfile)

    p_verify = sub.add_parser(
        "verify", help="run cross-method and identity verification sweeps")
    p_verify.add_argument("--max", type=int, default=200,
                          help="upper bound for n (default 200)")
    p_verify.add_argument("--k-max", type=int, default=64,
                          help="additional cap on the part-count index")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--threads", type=int, default=1,
                          help="parallel workers; MULTIFACT_THREADS overrides")
    p_verify.set_defaults(handler=cmd_verify)

    p_bench = sub.add_parser("bench", help="time each method on one query")
    p_bench.add_argument("function", choices=ALL_FUNCTIONS)
    p_bench.add_argument("n", type=int)
    add_indices(p_bench)
    p_bench.add_argument("--method", action="append", default=None,
                         help="method to time (repeatable; default: all applicable)")
    p_bench.add_argument("--all-methods", action="store_true",
                         help="time every applicable method (the default)")
    p_bench.add_argument("--repeat", type=int, default=3,
                         help="timing repetitions per method (cold caches each)")
    p_bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
