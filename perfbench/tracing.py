"""Per-layer tracing of multifact from outside the program.

`install` wraps the public functions of each module in place.  A wrapped
name is replaced in the module that defines it and in every multifact module
that imported it (`counting.divisor_power_reductions` and
`arith.divisor_power_reductions` are the same function).  Each wrapper opens a
span; a span's self time is its duration minus the time its child spans
cover.  Spans stay in memory, merged per op by (parent, name), and are
written out when the run ends.

`p_kl`, `r_l` and `r_lj` recurse through their own module globals to depths
near the interpreter's recursion limit, where one extra frame per level would
change which queries fail.  They are spanned only at their outermost call,
by replacing the routes in `cli._PARTITION_ROUTES` with wrappers that take
the place of the original one-frame lambdas, so every call runs at the same
stack depth traced and untraced.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions spanned on every call
PLAIN = {
    "arith": ("factorize", "divisor_power_reductions", "kappa"),
    "partitions": ("nu_beta", "h_weight", "mu_beta"),
    "partition_counts": ("stirling2", "bell", "check_identity"),
    "oracle": ("profile", "partition_profile"),
}
# generators: the span covers the time spent producing items
GENERATORS = {
    "partitions": ("partitions_of", "compositions_of"),
    "oracle": ("enumerate_factorizations", "enumerate_partitions"),
}
# memoized counting routes: name -> number of index arguments after n
ROUTES = {
    "f_k_rec": 1, "g_k_rec": 1,
    "f_k_kappa": 1, "g_k_kappa": 1, "f_kl": 2, "h_l": 1,
    "big_F": 1, "big_G": 1,
    "fedorov_F": 1,
}
ROUTE_FAMILIES = {
    "recursion": ("f_k_rec", "g_k_rec"),
    "kappa_recursion": ("f_k_kappa", "g_k_kappa", "f_kl", "h_l"),
    "partition_sum": ("big_F", "big_G"),
    "fedorov": ("fedorov_F",),
}
# deep partition recursions: argument order of each cli route
PARTITION_ROUTES = {
    "p_kl": lambda n, k, l, j: (n, k, l),
    "r_l": lambda n, k, l, j: (n, l),
    "r_lj": lambda n, k, l, j: (n, l, j),
}
EVALUATE = "cli.evaluate"


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [name, start, seconds covered by children]
        self._open = Counter()
        self._seen = set()  # (route, signature, indices) since the last cache clear
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._op_spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.records = []

    def enter(self, name):
        self._open[name] += 1
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self):
        name, start, covered = self._stack.pop()
        total = perf_counter() - start
        self._open[name] -= 1
        self.self_s[name] += total - covered
        parent = self._stack[-1] if self._stack else None
        if parent:
            parent[2] += total
        span = self._op_spans[(parent[0] if parent else None, name)]
        span[0] += 1
        span[1] += total
        span[2] += total - covered

    def is_open(self, name):
        return self._open[name] > 0

    def caches_cleared(self):
        self._seen.clear()

    def end_op(self, index, op, outcome):
        """Close the record of one op: its calls, outcome and merged spans."""
        self.records.append({
            "op": index,
            "calls": [list(call) for call in op],
            "outcome": outcome if isinstance(outcome, str) else "ok",
            "spans": [[parent, name, *span] for (parent, name), span in self._op_spans.items()],
        })
        self._op_spans.clear()

    def see_key(self, route, n, indices):
        """Count one memo lookup of a counting route, and a miss when its
        (signature, indices) key is new since the last cache clear."""
        self.counts[route + ".memo_lookups"] += 1
        key = (route, tuple(sorted(n.exponents, reverse=True)), indices)
        if key not in self._seen:
            self._seen.add(key)
            self.counts[route + ".distinct_keys"] += 1


def reaches_memo(route, n, indices) -> bool:
    """Whether a call of a counting route gets past its early returns to
    its memo; the same guards as the routes in multifact.counting."""
    if route in ("big_F", "big_G"):
        return indices[0] >= 0
    if route == "fedorov_F":
        return indices[0] >= 1
    if n.value == 1:
        return False
    if route == "f_kl":
        k, l = indices
        return 1 <= l <= k <= n.big_omega
    return 1 <= indices[0] <= n.big_omega


def _plain(tracer, name, fn, after=None, before=None):
    def wrapper(*args, **kwargs):
        if before:
            before(args)
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after:
            after(result)
        return result

    return wrapper


def _route(tracer, name, fn, arity):
    route = name.split(".")[1]

    def see_key(args):  # args = (n, *indices, [pi])
        n, indices = args[0], args[1:1 + arity]
        if reaches_memo(route, n, indices):
            tracer.see_key(name, n, indices)

    return _plain(tracer, name, fn, before=see_key)


def _generator(tracer, name, fn):
    def wrapper(*args, **kwargs):
        if tracer.is_open(name):  # a nested self-call: its items reach the outer span
            return fn(*args, **kwargs)
        tracer.calls[name] += 1
        return _spanned_items(tracer, name, fn(*args, **kwargs))

    return wrapper


def _spanned_items(tracer, name, items):
    while True:
        tracer.enter(name)
        try:
            item = next(items)
        except StopIteration:
            return
        finally:
            tracer.exit()
        tracer.counts[name + ".yielded"] += 1
        yield item


def _partition_route(tracer, name, fn, pick):
    def route(n, k, l, j):
        args = pick(n, k, l, j)
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            return fn(*args)
        except RecursionError:
            tracer.counts["partition_counts.recursion_errors"] += 1
            raise
        finally:
            tracer.exit()

    return route


def install(tracer: Tracer) -> None:
    """Wrap the multifact modules already imported; there is no undo, the
    traced pass is the last thing a benchmark process runs."""
    modules = {name: module for name, module in sys.modules.items()
               if name == "multifact" or name.startswith("multifact.")}

    def patch(module_name, name, make):
        module = modules.get("multifact." + module_name)
        original = getattr(module, name, None)
        if original is None:  # renamed or removed: its metrics read 0
            return
        wrapped = make(f"{module_name}.{name}", original)
        for module in modules.values():
            if getattr(module, name, None) is original:
                setattr(module, name, wrapped)

    def count_entries(result):
        tracer.counts["arith.divisor_power_reductions.entries"] += len(result)

    for module_name, names in PLAIN.items():
        for name in names:
            after = count_entries if name == "divisor_power_reductions" else None
            patch(module_name, name, lambda span, fn, after=after: _plain(tracer, span, fn, after))
    for module_name, names in GENERATORS.items():
        for name in names:
            patch(module_name, name, lambda span, fn: _generator(tracer, span, fn))
    for name, arity in ROUTES.items():
        patch("counting", name, lambda span, fn, arity=arity: _route(tracer, span, fn, arity))

    cli = modules.get("multifact.cli")
    counts = modules.get("multifact.partition_counts")
    table = getattr(cli, "_PARTITION_ROUTES", {})
    for name, pick in PARTITION_ROUTES.items():
        fn = getattr(counts, name, None)
        if fn is not None and (name, "recursion") in table:
            table[(name, "recursion")] = _partition_route(
                tracer, f"partition_counts.{name}", fn, pick)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures as (value, unit) pairs, named as in BENCHMARK.json."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}

    def timed(span, work=None, unit_name="calls"):
        out[f"{span}.{unit_name}"] = (work if work is not None else calls[span], "count")
        out[f"{span}.self_s"] = (self_s[span], "s")

    for name in PLAIN["arith"]:
        timed("arith." + name)
    out["arith.divisor_power_reductions.entries"] = (
        counts["arith.divisor_power_reductions.entries"], "count")
    for name in GENERATORS["partitions"]:
        timed("partitions." + name, counts[f"partitions.{name}.yielded"], "yielded")
    for name in PLAIN["partitions"]:
        timed("partitions." + name)
    for name in ROUTES:
        span = "counting." + name
        timed(span)
        out[span + ".distinct_keys"] = (counts[span + ".distinct_keys"], "count")
    for family, names in ROUTE_FAMILIES.items():
        out[f"counting.{family}.self_s"] = (sum(self_s["counting." + n] for n in names), "s")
    lookups = sum(counts[f"counting.{n}.memo_lookups"] for n in ROUTES)
    misses = sum(counts[f"counting.{n}.distinct_keys"] for n in ROUTES)
    out["counting.memo_hit_ratio"] = ((lookups - misses) / lookups if lookups else 0.0, "ratio")
    out["counting.memo_lookups"] = (lookups, "count")
    for name in (*PARTITION_ROUTES, *PLAIN["partition_counts"]):
        timed("partition_counts." + name)
    out["partition_counts.recursion_errors"] = (
        counts["partition_counts.recursion_errors"], "count")
    out["oracle.profile.self_s"] = (self_s["oracle.profile"], "s")
    out["oracle.enumerate_factorizations.self_s"] = (self_s["oracle.enumerate_factorizations"], "s")
    out["oracle.factorizations_enumerated"] = (
        counts["oracle.enumerate_factorizations.yielded"], "count")
    out["oracle.partition_profile.self_s"] = (self_s["oracle.partition_profile"], "s")
    out["oracle.enumerate_partitions.self_s"] = (self_s["oracle.enumerate_partitions"], "s")
    out["oracle.partitions_enumerated"] = (counts["oracle.enumerate_partitions.yielded"], "count")
    timed(EVALUATE)
    return out
