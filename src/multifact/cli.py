"""Command-line front end: single-value queries, b-file sequence export,
cross-method verification sweeps, and micro-benchmarks.

Every route of every function is one entry of a route table:
``_FACTOR_ROUTES`` for the functions of a factored n (f, g, f_k, g_k, F_k,
G_k, h_l, f_kl) and ``_PARTITION_ROUTES`` for those of a plain int (p_kl,
r_l, r_lj, stirling2, bell), the oracle included.  Every oracle route reads
one enumeration of n, its factorizations or its partitions (r_lj's, those
into parts >= j), through the one read table ``_ORACLE_READS``; both count
by (parts, distinct values), so p_kl reads as f_kl does and r_l and r_lj as
h_l does.  ``verify`` reads every value it compares from these three tables,
``_RELATIONS`` or ``check_identity``, at every n from 1 and every index from
0 in both suites; it leaves out a route over its budget as ``compute
--all-methods`` does, and in the oracle suite a side of n whose enumeration
is over its budget.  The function lists, each function's methods in order
(the first is its default) and the ``--method`` choices derive from the
route tables; ``NEEDS`` holds each function's indices.

Exit codes: 0 success, 1 verification or internal integrity failure, 2 usage
error.  All stdout is deterministic for fixed arguments, except the timing
columns of ``bench``.
"""

import argparse
import json
import sys
import time

from . import counting, oracle, partition_counts
from .arith import FactoredInt, IntegrityError, factorize
from .oracle import OracleLimitError
from .partition_counts import check_identity

# reject stirling2 and bell past this n: the Stirling row takes O(n**2)
# big-int steps to build; bfile bell --max 2500 takes 6.5 s on a 2-vCPU VM
STIRLING_MAX_N = 2500

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

SUITES = ("routes", "identities", "oracle", "all")


class UsageError(Exception):
    """Bad command-line arguments; maps to exit code 2."""


# --------------------------------------------------------------------------
# route tables

def _cells(keep):
    """An oracle read: the sum of a profile's counts whose key (parts,
    values) passes keep(parts, values, k, l)."""
    return lambda prof, k, l: sum(c for (p, v), c in prof.items() if keep(p, v, k, l))


# each function as a cell, a row, a column, a diagonal or a row-prefix sum of
# the oracle's profile, a dict from (parts, distinct values) to a count
_ORACLE_READS = {
    "f": _cells(lambda p, v, k, l: True),
    "g": _cells(lambda p, v, k, l: p == v),
    "f_k": _cells(lambda p, v, k, l: p == k),
    "g_k": _cells(lambda p, v, k, l: p == v == k),
    "F_k": _cells(lambda p, v, k, l: p <= k),
    "G_k": _cells(lambda p, v, k, l: p == v and k - 1 <= p <= k),
    "h_l": _cells(lambda p, v, k, l: v == l),
    "f_kl": _cells(lambda p, v, k, l: p == k and v == l),
}
# p_kl(n) = f_kl(2**n) and r_l(n) = h_l(2**n): the partition profile of n is
# the factorization profile of 2**n; r_lj reads as r_l does, from the profile
# of the partitions into parts >= j
_ORACLE_READS.update(p_kl=_ORACLE_READS["f_kl"], r_l=_ORACLE_READS["h_l"],
                     r_lj=_ORACLE_READS["h_l"])


def _oracle_route(read):
    return lambda fi, k, l: read(oracle.profile(fi.value), k, l)


def _oracle_partition_route(read):
    return lambda n, k, l, j: read(oracle.partition_profile(n, j or 1), k, l)


# each row reads its base route of `counting` by the module name at call
# time, so a wrapper put in a route's place sees every call; the totals and
# the k-part twins are composed here, as counting's _k_sum or as the sum or
# difference of two route calls.  Each base route gives its own values outside
# its range by the one rule: 1 when every index is 0 at n = 1, 0 otherwise
_FACTOR_ROUTES = {
    ("f", "recursion"): lambda fi, k, l: counting._k_sum(counting.f_k_rec, fi, fi.big_omega),
    ("f", "partition-sum"): lambda fi, k, l: counting.f_total(fi),
    ("f", "kappa-recursion"): lambda fi, k, l: counting._k_sum(counting.f_k_kappa, fi, fi.big_omega),
    ("f", "fedorov"): lambda fi, k, l: counting.fedorov_F(fi, fi.big_omega),
    ("g", "recursion"): lambda fi, k, l: counting._k_sum(counting.g_k_rec, fi, fi.big_omega),
    ("g", "partition-sum"): lambda fi, k, l: counting.g_total(fi),
    ("g", "kappa-recursion"): lambda fi, k, l: counting._k_sum(counting.g_k_kappa, fi, fi.big_omega),
    ("f_k", "recursion"): lambda fi, k, l: counting.f_k_rec(fi, k),
    ("f_k", "partition-sum"): lambda fi, k, l: counting.big_F(fi, k) - counting.big_F(fi, k - 1),
    ("f_k", "kappa-recursion"): lambda fi, k, l: counting.f_k_kappa(fi, k),
    ("f_k", "fedorov"): lambda fi, k, l: counting.fedorov_F(fi, k) - counting.fedorov_F(fi, k - 1),
    ("g_k", "recursion"): lambda fi, k, l: counting.g_k_rec(fi, k),
    ("g_k", "partition-sum"): lambda fi, k, l: counting.g_from_G(fi, k),
    ("g_k", "kappa-recursion"): lambda fi, k, l: counting.g_k_kappa(fi, k),
    ("F_k", "partition-sum"): lambda fi, k, l: counting.big_F(fi, k),
    ("F_k", "fedorov"): lambda fi, k, l: counting.fedorov_F(fi, k),
    ("F_k", "recursion"): lambda fi, k, l: counting._k_sum(counting.f_k_rec, fi, k),
    ("F_k", "kappa-recursion"): lambda fi, k, l: counting._k_sum(counting.f_k_kappa, fi, k),
    ("G_k", "partition-sum"): lambda fi, k, l: counting.big_G(fi, k),
    ("G_k", "recursion"): lambda fi, k, l: counting.g_k_rec(fi, k) + counting.g_k_rec(fi, k - 1),
    ("h_l", "recursion"): lambda fi, k, l: counting.h_l(fi, l),
    ("f_kl", "recursion"): lambda fi, k, l: counting.f_kl(fi, k, l),
    **{(function, "oracle"): _oracle_route(_ORACLE_READS[function])
       for function in ("f", "g", "f_k", "g_k", "F_k", "G_k", "h_l", "f_kl")},
}

_PARTITION_ROUTES = {
    ("p_kl", "recursion"): lambda n, k, l, j: partition_counts.p_kl(n, k, l),
    ("r_l", "recursion"): lambda n, k, l, j: partition_counts.r_l(n, l),
    ("r_lj", "recursion"): lambda n, k, l, j: partition_counts.r_lj(n, l, j),
    ("stirling2", "recursion"): lambda n, k, l, j: partition_counts.stirling2(n, k),
    ("bell", "recursion"): lambda n, k, l, j: partition_counts.bell(n),
    **{(function, "oracle"): _oracle_partition_route(_ORACLE_READS[function])
       for function in ("p_kl", "r_l", "r_lj")},
}

_ROUTE_KEYS = (*_FACTOR_ROUTES, *_PARTITION_ROUTES)
METHODS_FOR = {
    function: tuple(m for f, m in _ROUTE_KEYS if f == function)
    for function in dict.fromkeys(f for f, _ in _ROUTE_KEYS)
}
DEFAULT_METHOD = {function: methods[0] for function, methods in METHODS_FOR.items()}
ALL_FUNCTIONS = tuple(METHODS_FOR)
FACTOR_FUNCTIONS = tuple(dict.fromkeys(f for f, _ in _FACTOR_ROUTES))
METHODS = tuple(dict.fromkeys(m for _, m in _ROUTE_KEYS))


def evaluate(function: str, method: str, n: int, k=None, l=None, j=None) -> int:
    """Compute one value of one function by one method; n is a plain int."""
    if function in FACTOR_FUNCTIONS:
        return _FACTOR_ROUTES[(function, method)](factorize(n), k, l)
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
        if function in ("stirling2", "bell") and n > STIRLING_MAX_N:
            raise UsageError(f"{function} requires n <= {STIRLING_MAX_N}")
        return None
    if n < 1:
        raise UsageError(f"{function} requires n >= 1")
    return factorize(n)


def _within_budget(methods, route):
    """Each method's value by route(method), leaving out a method whose route
    raises OracleLimitError; also one "<method> skipped: <reason>" line for
    each method left out."""
    values, skipped = {}, []
    for m in methods:
        try:
            values[m] = route(m)
        except OracleLimitError as exc:
            skipped.append(f"{m} skipped: {exc}")
    return values, skipped


_clear_all_caches = counting.clear_caches


# --------------------------------------------------------------------------
# compute

def cmd_compute(args) -> int:
    function = args.function
    fi = _validate_query(function, args.n, args.k, args.l, args.j, args.method)
    if args.all_methods and args.method:
        raise UsageError("--method and --all-methods cannot be combined")

    def route(m):
        if fi is None:
            return evaluate(function, m, args.n, args.k, args.l, args.j)
        return _FACTOR_ROUTES[(function, m)](fi, args.k, args.l)

    if args.all_methods:
        records, skipped = _within_budget(METHODS_FOR[function], route)
    else:  # one method: over its budget the query fails
        method = args.method or DEFAULT_METHOD[function]
        records, skipped = {method: route(method)}, []
    if args.format == "json":
        for m, value in records.items():
            print(json.dumps({"function": function, "n": str(args.n), "k": args.k,
                              "l": args.l, "j": args.j, "value": str(value), "method": m}))
    elif args.all_methods:
        for m, value in records.items():
            print(f"{m} {value}")
    else:
        print(records[method])
    for line in skipped:  # empty unless --all-methods
        print(line, file=sys.stderr if args.format == "json" else sys.stdout)
    if args.all_methods:
        if len(set(records.values())) > 1:
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
    _validate_query(function, args.max, args.k, args.l, args.j, args.method)
    start = 2 if function in FACTOR_FUNCTIONS else 1
    method = args.method or DEFAULT_METHOD[function]
    out = sys.stdout
    for n in range(start, args.max + 1):
        value = evaluate(function, method, n, args.k, args.l, args.j)
        if n == start:  # a query that fails at its first n prints one line
            print(f"offset {start}", file=sys.stderr)
        out.write(f"{n} {value}\n")
    return 0


# --------------------------------------------------------------------------
# verify
#
# Each check is (function, n, k, l, values), values mapping a method, a
# relation or an identity's side to its value; a check fails when the values
# disagree.  A grid yields the points (function, k, l) of one side at n, every
# index from 0, so both suites check each route's own boundary as well.

def _factor_grid(fi: FactoredInt):
    yield "f", None, None
    yield "g", None, None
    for k in range(fi.big_omega + 3):
        for function in ("f_k", "g_k", "F_k", "G_k"):
            yield function, k, None
        for l in range(k + 1):
            yield "f_kl", k, l
    for l in range(fi.big_omega + 2):
        yield "h_l", None, l


def _partition_grid(n: int):
    for l in range(9):
        yield "r_l", None, l
    for k in range(n + 1):
        for l in range(min(k, 8) + 1):
            yield "p_kl", k, l


# the values the routes suite checks beside a partition function's own
# routes, each read from the route tables at call time: r_l by the r_lj
# recursion at j = 1, and r_l, p_kl by the h_l, f_kl recursions at 2**n
_RELATIONS = {
    "r_l": {
        "parts-floor-recursion":
            lambda n, k, l: _PARTITION_ROUTES[("r_lj", "recursion")](n, k, l, 1),
        "prime-power":
            lambda n, k, l: _FACTOR_ROUTES[("h_l", "recursion")](counting.canonical((n,)), k, l),
    },
    "p_kl": {
        "prime-power":
            lambda n, k, l: _FACTOR_ROUTES[("f_kl", "recursion")](counting.canonical((n,)), k, l),
    },
}


def _checks(suite: str, n: int):
    """Yield one suite's checks at n: each identity up to its own largest n,
    the factorization side at every n and the partition side up to n = 40,
    the oracle suite leaving out a side whose enumeration is over budget."""
    if suite == "identities":
        for identity, (_, _, k_indexed, top) in partition_counts._IDENTITY_TABLE.items():
            if n > top:
                continue
            for k in range(1, n + 1) if k_indexed else (None,):
                rep = check_identity(identity, n, k)
                yield identity, n, k, None, {"lhs": rep.lhs, "rhs": rep.rhs}
        return
    fi = factorize(n)
    sides = [(_factor_grid(fi), lambda key, k, l: _FACTOR_ROUTES[key](fi, k, l),
              oracle.profile)]  # (grid, route(key, k, l), oracle enumeration)
    if n <= 40:
        sides.append((_partition_grid(n),
                      lambda key, k, l: _PARTITION_ROUTES[key](n, k, l, None),
                      oracle.partition_profile))
    for grid, route, enumerate_n in sides:
        try:
            prof = enumerate_n(n) if suite == "oracle" else None
        except OracleLimitError:
            continue
        for function, k, l in grid:
            if prof is not None:  # the default route against the enumeration
                method = DEFAULT_METHOD[function]
                values = {method: route((function, method), k, l),
                          "oracle": _ORACLE_READS[function](prof, k, l)}
            else:  # every route within budget but the oracle and every relation
                methods = [m for m in METHODS_FOR[function] if m != "oracle"]
                relations = _RELATIONS.get(function, {})
                if len(methods) + len(relations) < 2:
                    continue
                values, _ = _within_budget(methods, lambda m: route((function, m), k, l))
                values.update((label, rel(n, k, l)) for label, rel in relations.items())
                if len(values) < 2:
                    continue
            yield function, n, k, l, values


def cmd_verify(args) -> int:
    if args.max < 1:
        raise UsageError("--max must be >= 1")
    selected = SUITES[:-1] if args.suite == "all" else (args.suite,)
    first_failure = None
    for suite in selected:
        checks = failures = 0
        for n in range(1, args.max + 1):
            for check in _checks(suite, n):
                checks += 1
                if len(set(check[4].values())) > 1:
                    failures += 1
                    first_failure = first_failure or check
        print(f"{suite}: {checks - failures}/{checks} pass")
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
    # the query first, then each --method against it
    for method in (None, *(args.method or ())):
        _validate_query(function, args.n, args.k, args.l, args.j, method)
    methods = tuple(dict.fromkeys(args.method or METHODS_FOR[function]))
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

    def add_query(p, *n_flags, **n_options):
        # the function, its n (or --max), then the index flags
        p.add_argument("function", choices=ALL_FUNCTIONS)
        p.add_argument(*n_flags, type=int, **n_options)
        p.add_argument("--k", type=int, default=None, help="part-count index")
        p.add_argument("--l", type=int, default=None, help="distinct-value index")
        p.add_argument("--j", type=int, default=None, help="minimum part size index")

    p_compute = sub.add_parser("compute", help="compute one value")
    add_query(p_compute, "n")
    p_compute.add_argument("--method", choices=METHODS, default=None)
    p_compute.add_argument("--all-methods", action="store_true",
                           help="compute by every applicable method and verify agreement")
    p_compute.add_argument("--format", choices=("text", "json"), default="text",
                           help="text: bare decimal value; json: one record per line")
    p_compute.set_defaults(handler=cmd_compute)

    p_bfile = sub.add_parser(
        "bfile", help="emit 'n value' lines for n up to --max (b-file convention)")
    add_query(p_bfile, "--max", required=True)
    p_bfile.add_argument("--method", choices=METHODS, default=None)
    p_bfile.set_defaults(handler=cmd_bfile)

    p_verify = sub.add_parser(
        "verify", help="run cross-method and identity verification sweeps")
    p_verify.add_argument("--max", type=int, default=200,
                          help="upper bound for n (default 200)")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.set_defaults(handler=cmd_verify)

    p_bench = sub.add_parser("bench", help="time each method on one query")
    add_query(p_bench, "n")
    p_bench.add_argument("--method", action="append", default=None,
                         help="method to time (repeatable; default: all applicable)")
    p_bench.add_argument("--repeat", type=int, default=3,
                         help="timing repetitions per method (cold caches each)")
    p_bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact values may have more digits than the interpreter's int -> str limit
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (UsageError, OracleLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # the partition recursions take one stack frame per level
        n = f"n={args.n}" if hasattr(args, "n") else f"n<={args.max}"
        print(f"error: {getattr(args, 'function', args.command)} {n}: recursion "
              "too deep for the interpreter stack", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
