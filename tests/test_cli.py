"""Tests for the command-line interface: grammar, formats, exit codes."""

import json
import shlex
import sys
from pathlib import Path

import pytest

import readme_library
from multifact import cli, counting, oracle, partition_counts
from test_counting import plant_off_by_one_entry


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_f_36(capsys):
    code, out, err = run(capsys, "compute", "f", "36")
    assert code == 0
    assert out == "9\n"


def test_compute_h_l(capsys):
    code, out, _ = run(capsys, "compute", "h_l", "36", "--l", "2")
    assert code == 0
    assert out == "6\n"


def test_compute_F_k_at_unit(capsys):
    code, out, _ = run(capsys, "compute", "F_k", "1", "--k", "5")
    assert code == 0
    assert out == "1\n"
    # verify's factorization side starts at n = 2, so the index-0 boundary
    # f_0(1) = g_0(1) = F_0(1) = G_0(1) = 1 that each route gives is checked
    # here: every row reads as the oracle's empty factorization
    fi, prof = cli.factorize(1), oracle.profile(1)
    for (function, method), row in cli._FACTOR_ROUTES.items():
        for k in range(5):
            for l in range(5):
                want = cli._ORACLE_READS[function](prof, k, l)
                assert row(fi, k, l) == want, (function, method, k, l)


# the routes that hold the paper's boundary, each with the unit of its side
_FACTOR_SIDE_ROUTES = ("f_k_rec", "g_k_rec", "f_k_kappa", "g_k_kappa", "fedorov_F",
                       "f_kl", "h_l")
_PARTITION_SIDE_ROUTES = ("p_kl", "r_l", "r_lj", "stirling2", "bell")


def _outside_the_range(route, n):
    """Index tuples outside a route's range at n: an index of -1, of 0, past
    Omega(n) (past n for p_kl and stirling2), l > k, l(l+1) > 2n and j*l > n,
    and for bell the empty tuple at n < 0.  r_lj's last index is j."""
    if route == "fedorov_F":  # F_k is F_Omega past Omega, so only k <= 0
        return [(-1,), (0,)]
    if route == "stirling2":  # S(n, k) needs 0 <= k <= n
        return [(-1,), (n + 1,)]
    if route == "bell":  # B_n needs n >= 0
        return [()] if n < 0 else []
    if route == "f_kl":
        top = n.big_omega
        return [(-1, 0), (0, -1), (0, 0), (1, 0), (top + 1, 1), (top + 1, top + 1),
                (1, 2), (top, top + 1)]
    if route in _FACTOR_SIDE_ROUTES:
        return [(-1,), (0,), (n.big_omega + 1,)]
    wide = 1  # the least l with l(l+1) > 2n
    while wide * (wide + 1) <= 2 * n:
        wide += 1
    if route == "p_kl":
        return [(-1, 0), (0, -1), (0, 0), (1, 0), (n + 1, 1), (1, 2), (max(n, wide), wide)]
    if route == "r_l":
        return [(-1,), (0,), (wide,)]
    return [(-1, 1), (0, 1), (0, 3), (n // 2 + 1, 2), (n + 1, 1)]


def _memo_sizes():
    return {(module.__name__, name): len(table)
            for module in (counting, partition_counts)
            for name, table in vars(module).items()
            if isinstance(table, dict) and not name.startswith("__")}


@pytest.mark.parametrize("route", _FACTOR_SIDE_ROUTES + _PARTITION_SIDE_ROUTES)
def test_routes_outside_their_range_follow_one_rule(route):
    # a count is 1 when every index is 0 at the unit (n = 1 on the factor side,
    # n = 0 on the partition side) and 0 at every other index outside the
    # recursion's range, and such a call reaches no memo
    counting.clear_caches()
    before = _memo_sizes()
    if route in _FACTOR_SIDE_ROUTES:
        fn, unit = getattr(counting, route), 1
        sides = [cli.factorize(n) for n in (1, 2, 36, 2**6 * 3**4 * 5**2)]
    else:
        fn, unit = getattr(partition_counts, route), 0
        sides = [-1, 0, 5, 12]
    for n in sides:
        at_unit = (n.value if route in _FACTOR_SIDE_ROUTES else n) == unit
        for indices in _outside_the_range(route, n):
            counts = indices[:-1] if route == "r_lj" else indices
            want = 1 if at_unit and not any(counts) else 0
            assert fn(n, *indices) == want, (route, n, indices)
    assert _memo_sizes() == before


def test_compute_all_methods_text(capsys):
    code, out, _ = run(capsys, "compute", "f", "36", "--all-methods")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "consistent: 5 methods agree"
    assert sorted(line.split() for line in lines[:-1]) == sorted(
        [[m, "9"] for m in cli.METHODS_FOR["f"]]
    )


def test_compute_json_record_schema(capsys):
    code, out, _ = run(
        capsys, "compute", "f_kl", "36", "--k", "3", "--l", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record == {
        "function": "f_kl",
        "n": "36",
        "k": 3,
        "l": 2,
        "j": None,
        "value": "2",
        "method": "recursion",
    }


def test_compute_json_all_methods_one_record_per_line(capsys):
    code, out, _ = run(capsys, "compute", "g", "36", "--all-methods", "--format", "json")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == len(cli.METHODS_FOR["g"])
    values = set()
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"function", "n", "k", "l", "j", "value", "method"}
        values.add(record["value"])
    assert values == {"5"}


def test_text_and_json_carry_identical_values(capsys):
    _, text_out, _ = run(capsys, "compute", "bell", "20")
    _, json_out, _ = run(capsys, "compute", "bell", "20", "--format", "json")
    assert json.loads(json_out)["value"] == text_out.strip()


def test_compute_partition_functions(capsys):
    assert run(capsys, "compute", "p_kl", "7", "--k", "3", "--l", "2")[1] == "3\n"
    assert run(capsys, "compute", "r_l", "5", "--l", "2")[1] == "5\n"
    assert run(capsys, "compute", "r_lj", "7", "--l", "2", "--j", "2")[1] == "3\n"
    assert run(capsys, "compute", "stirling2", "4", "--k", "2")[1] == "7\n"
    assert run(capsys, "compute", "bell", "4")[1] == "15\n"


def test_compute_method_override(capsys):
    for method in cli.METHODS_FOR["f_k"]:
        code, out, _ = run(capsys, "compute", "f_k", "36", "--k", "2", "--method", method)
        assert code == 0
        assert out == "4\n"


def test_bfile_f(capsys):
    code, out, err = run(capsys, "bfile", "f", "--max", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 1"
    assert lines[-1] == "12 4"
    assert len(lines) == 11
    assert "offset 2" in err
    assert "offset" not in out


def test_bfile_r_l(capsys):
    code, out, err = run(capsys, "bfile", "r_l", "--l", "1", "--max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 1"
    assert lines[-1] == "5 2"
    assert "offset 1" in err


def test_bfile_minimal(capsys):
    code, out, _ = run(capsys, "bfile", "f", "--max", "2")
    assert code == 0
    assert out == "2 1\n"


def test_bfile_format_is_clean(capsys):
    _, out, _ = run(capsys, "bfile", "f_k", "--k", "2", "--max", "40")
    for line in out.splitlines():
        n, value = line.split(" ")
        assert n.isdigit() and value.isdigit()
    assert "\n\n" not in out


def test_bfile_takes_a_k_past_omega(capsys, within_a_second):
    code, out, err = run(capsys, "bfile", "F_k", "--max", "4", "--k", "66",
                         "--method", "recursion")
    assert (code, out, err) == (0, "2 1\n3 1\n4 2\n", "offset 2\n")


def test_bfile_max_above_max_n_exits_2_before_any_line(capsys):
    code, out, err = run(capsys, "bfile", "f", "--max", str(10**14 + 1))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "n <= " in err


def test_verify_oracle_suite(capsys):
    code, out, _ = run(capsys, "verify", "--max", "36", "--suite", "oracle")
    assert code == 0
    assert "oracle:" in out and " pass" in out


def test_verify_routes_suite(capsys):
    code, out, _ = run(capsys, "verify", "--max", "60", "--suite", "routes")
    assert code == 0


def test_verify_identities_suite(capsys):
    code, out, _ = run(capsys, "verify", "--max", "12", "--suite", "identities")
    assert code == 0


def test_verify_check_counts_are_pinned(capsys):
    # the number of checks each suite makes, so a sweep that silently drops
    # or adds a check is caught
    code, out, err = run(capsys, "verify", "--max", "60")
    assert (code, err) == (0, "")
    assert out == (
        "routes: 8088/8088 pass\n"
        "identities: 537/537 pass\n"
        "oracle: 9352/9352 pass\n"
    )


def test_verify_reports_counterexample_on_failure(capsys, monkeypatch):
    # sabotage one route to confirm failures surface with exit code 1
    monkeypatch.setitem(
        cli._FACTOR_ROUTES, ("f_k", "kappa-recursion"), lambda fi, k, l: 999
    )
    code, out, err = run(capsys, "verify", "--max", "10", "--suite", "routes")
    assert code == 1
    assert "first counterexample" in err
    assert "f_k" in err


@pytest.mark.parametrize("table, key, function", [
    ("_PARTITION_ROUTES", ("r_l", "recursion"), "r_l"),
    ("_PARTITION_ROUTES", ("r_lj", "recursion"), "r_l"),
    ("_PARTITION_ROUTES", ("p_kl", "recursion"), "p_kl"),
    ("_FACTOR_ROUTES", ("h_l", "recursion"), "r_l"),
    ("_FACTOR_ROUTES", ("f_kl", "recursion"), "p_kl"),
])
def test_verify_routes_reads_the_partition_side_from_the_route_tables(
        capsys, monkeypatch, table, key, function):
    # r_l and p_kl by their recursions, r_l by r_lj at j = 1, and both by the
    # factorization recursions at 2**n: a wrong table entry must fail verify
    routes = getattr(cli, table)
    right = routes[key]
    monkeypatch.setitem(routes, key, lambda *args: right(*args) + 1)
    code, out, err = run(capsys, "verify", "--max", "10", "--suite", "routes")
    assert code == 1
    assert err.startswith(f"first counterexample: {function} n=")


@pytest.mark.parametrize("route, identity", [
    ("big_F", "bell-partition-sum"),
    ("big_G", "choose2-plus-one"),
    ("f_k_rec", "primorial-stirling"),
    ("_k_sum", "primorial-bell"),
])
def test_verify_identities_read_the_shipped_routes(capsys, monkeypatch, route, identity):
    # one value off on the signature of 2*3*5*7 must fail the identities;
    # _k_sum takes the k-part route it sums before n
    right = getattr(partition_counts, route)

    def off_by_one(*args):
        fi = args[route == "_k_sum"]
        return right(*args) + (fi.signature == (1, 1, 1, 1))

    monkeypatch.setattr(partition_counts, route, off_by_one)
    code, out, err = run(capsys, "verify", "--max", "20", "--suite", "identities")
    assert code == 1
    assert err.startswith(f"first counterexample: {identity} n=4 ")


def test_verify_routes_reads_the_k_sum_helper(capsys, monkeypatch):
    right = counting._k_sum
    monkeypatch.setattr(counting, "_k_sum", lambda *args: right(*args) + 1)
    code, out, err = run(capsys, "verify", "--max", "10", "--suite", "routes")
    assert code == 1
    assert err.startswith("first counterexample: ")


# the counting route each formula row is built on
BASE_ROUTE_OF_ROW = {
    "f_k_rec": [("f", "recursion"), ("f_k", "recursion"), ("F_k", "recursion")],
    "g_k_rec": [("g", "recursion"), ("g_k", "recursion"), ("G_k", "recursion")],
    "f_k_kappa": [("f", "kappa-recursion"), ("f_k", "kappa-recursion"),
                  ("F_k", "kappa-recursion")],
    "g_k_kappa": [("g", "kappa-recursion"), ("g_k", "kappa-recursion")],
    "big_F": [("f", "partition-sum"), ("f_k", "partition-sum"), ("F_k", "partition-sum")],
    "big_G": [("g", "partition-sum"), ("g_k", "partition-sum"), ("G_k", "partition-sum")],
    "fedorov_F": [("f", "fedorov"), ("f_k", "fedorov"), ("F_k", "fedorov")],
    "h_l": [("h_l", "recursion")],
    "f_kl": [("f_kl", "recursion")],
}


def test_every_formula_row_reads_its_counting_route_by_module_name(monkeypatch):
    # the benchmark's tracer sees a route only through its module name, so a
    # row that held the function itself would hide the route's calls; warm
    # memos keep a recursion from reaching its own name below the row's call
    fi = cli.factorize(36)
    rows = [key for key in cli._FACTOR_ROUTES if key[1] != "oracle"]
    for key in rows:
        cli._FACTOR_ROUTES[key](fi, 2, 2)
    called = set()
    for name in BASE_ROUTE_OF_ROW:
        right = getattr(counting, name)
        monkeypatch.setattr(counting, name,
                            lambda *args, name=name, right=right: called.add(name) or right(*args))
    readers = {name: [] for name in BASE_ROUTE_OF_ROW}
    for key in rows:
        called.clear()
        cli._FACTOR_ROUTES[key](fi, 2, 2)
        for name in called:
            readers[name].append(key)
    assert readers == BASE_ROUTE_OF_ROW
    assert sorted(sum(BASE_ROUTE_OF_ROW.values(), [])) == sorted(rows)


@pytest.mark.parametrize("function", ["p_kl", "r_l"])
def test_verify_oracle_reads_the_partition_read_table(capsys, monkeypatch, function):
    # p_kl and r_l share their reads with f_kl and h_l, but each is its own key
    right = cli._ORACLE_READS[function]
    monkeypatch.setitem(cli._ORACLE_READS, function,
                        lambda pp, k, l: right(pp, k, l) + 1)
    code, out, err = run(capsys, "verify", "--max", "10", "--suite", "oracle")
    assert code == 1
    assert err.startswith(f"first counterexample: {function} n=")


def test_partition_oracle_routes_read_the_partition_read_table():
    assert cli._ORACLE_READS["p_kl"] is cli._ORACLE_READS["f_kl"]
    assert cli._ORACLE_READS["r_l"] is cli._ORACLE_READS["h_l"]
    assert cli._ORACLE_READS["r_lj"] is cli._ORACLE_READS["h_l"]
    for n in range(0, 13):
        profile = oracle.partition_profile(n)
        for l in range(0, 5):
            assert (cli.evaluate("r_l", "oracle", n, None, l)
                    == cli._ORACLE_READS["r_l"](profile, None, l)
                    == partition_counts.r_l(n, l)), (n, l)
            for k in range(0, n + 2):
                assert (cli.evaluate("p_kl", "oracle", n, k, l)
                        == cli._ORACLE_READS["p_kl"](profile, k, l)
                        == partition_counts.p_kl(n, k, l)), (n, k, l)


def test_verify_routes_leaves_out_a_route_over_its_budget(capsys, monkeypatch):
    # the suite skips the route as compute --all-methods does, and f_k keeps
    # three routes at every point, so the number of checks does not move
    code, out, err = run(capsys, "verify", "--max", "30", "--suite", "routes")
    assert (code, err) == (0, "")
    unpatched = out

    def over_budget(fi, k, l):
        raise oracle.OracleLimitError("more than 1000000 compositions of 21")

    monkeypatch.setitem(cli._FACTOR_ROUTES, ("f_k", "fedorov"), over_budget)
    assert run(capsys, "verify", "--max", "30", "--suite", "routes") == (0, unpatched, "")


def test_verify_oracle_leaves_out_a_side_over_its_budget(capsys, monkeypatch):
    # 64 = 2**6 has 11 factorizations and 36 has 9: at a budget of 10 the
    # oracle suite leaves out the factorization side of 64, keeps every check
    # of 36, and the sweep still passes
    checks_36 = list(cli._checks("oracle", 36))
    assert checks_36 and list(cli._checks("oracle", 64))
    monkeypatch.setattr(oracle, "DEFAULT_MAX_FACTORIZATIONS", 10)
    assert list(cli._checks("oracle", 64)) == []
    assert list(cli._checks("oracle", 36)) == checks_36
    code, out, err = run(capsys, "verify", "--max", "64", "--suite", "oracle")
    assert (code, err) == (0, "")


# the suites that catch each non-oracle row of the route tables when it adds
# 1 to every value at one n, n = 36 for a factor row and n = 12 for a
# partition row; identities read partition_counts directly, not the rows
DETECTED_BY = {
    **{key: {"oracle", "routes"} for key in [
        ("f", "recursion"), ("g", "recursion"), ("f_k", "recursion"), ("g_k", "recursion"),
        ("F_k", "partition-sum"), ("G_k", "partition-sum"),
        ("p_kl", "recursion"), ("r_l", "recursion")]},
    **{key: {"routes"} for key in [
        ("f", "partition-sum"), ("f", "kappa-recursion"), ("f", "fedorov"),
        ("g", "partition-sum"), ("g", "kappa-recursion"),
        ("f_k", "partition-sum"), ("f_k", "kappa-recursion"), ("f_k", "fedorov"),
        ("g_k", "partition-sum"), ("g_k", "kappa-recursion"),
        ("F_k", "fedorov"), ("F_k", "recursion"), ("F_k", "kappa-recursion"),
        ("G_k", "recursion"), ("r_lj", "recursion")]},
    # the one route of each has no second route or relation to meet
    ("h_l", "recursion"): {"oracle"},
    ("f_kl", "recursion"): {"oracle"},
    # no suite checks these
    ("stirling2", "recursion"): set(),
    ("bell", "recursion"): set(),
}


def test_verify_detection_map(monkeypatch):
    caught = {}
    for table, n, n_of in ((cli._FACTOR_ROUTES, 36, lambda fi: fi.value),
                           (cli._PARTITION_ROUTES, 12, lambda n: n)):
        for key, row in list(table.items()):
            if key[1] == "oracle":
                continue
            monkeypatch.setitem(table, key, lambda x, *args, row=row, n=n, n_of=n_of:
                                row(x, *args) + (n_of(x) == n))
            caught[key] = {suite for suite in ("routes", "identities", "oracle")
                           if any(len(set(check[4].values())) > 1
                                  for check in cli._checks(suite, n))}
            monkeypatch.setitem(table, key, row)
    assert caught == DETECTED_BY


@pytest.mark.parametrize("max_n", ["-3", "0"])
def test_verify_max_below_one_exits_2(capsys, max_n):
    code, out, err = run(capsys, "verify", "--max", max_n)
    assert (code, out, err) == (2, "", "error: --max must be >= 1\n")


def test_compute_method_with_all_methods_exits_2(capsys):
    code, out, err = run(capsys, "compute", "f", "36", "--method", "oracle", "--all-methods")
    assert (code, out) == (2, "")
    assert err == "error: --method and --all-methods cannot be combined\n"


def test_bench_checks_each_method_as_compute_does(capsys):
    _, _, compute_err = run(capsys, "compute", "g", "36", "--method", "fedorov")
    code, out, err = run(capsys, "bench", "g", "36", "--method", "recursion",
                         "--method", "fedorov", "--repeat", "1")
    assert (code, out) == (2, "")
    assert err == compute_err == (
        "error: g supports methods recursion, partition-sum, kappa-recursion, oracle\n")
    # the query's own errors come first, as before any method is looked at
    code, _, err = run(capsys, "bench", "g", "0", "--method", "fedorov", "--repeat", "1")
    assert (code, err) == (2, "error: g requires n >= 1\n")


def test_route_tables_are_pinned():
    # the default route of every function and the cross-check op mix of the
    # benchmark follow these tables, so any move in them is deliberate
    assert cli.METHODS_FOR == {
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
    assert list(cli.METHODS_FOR) == [
        "f", "g", "f_k", "g_k", "F_k", "G_k", "h_l", "f_kl",
        "p_kl", "r_l", "r_lj", "stirling2", "bell",
    ]
    assert cli.DEFAULT_METHOD == {
        "f": "recursion", "g": "recursion", "f_k": "recursion", "g_k": "recursion",
        "F_k": "partition-sum", "G_k": "partition-sum", "h_l": "recursion",
        "f_kl": "recursion", "p_kl": "recursion", "r_l": "recursion",
        "r_lj": "recursion", "stirling2": "recursion", "bell": "recursion",
    }
    assert list(cli._FACTOR_ROUTES) == [
        ("f", "recursion"), ("f", "partition-sum"), ("f", "kappa-recursion"),
        ("f", "fedorov"),
        ("g", "recursion"), ("g", "partition-sum"), ("g", "kappa-recursion"),
        ("f_k", "recursion"), ("f_k", "partition-sum"), ("f_k", "kappa-recursion"),
        ("f_k", "fedorov"),
        ("g_k", "recursion"), ("g_k", "partition-sum"), ("g_k", "kappa-recursion"),
        ("F_k", "partition-sum"), ("F_k", "fedorov"), ("F_k", "recursion"),
        ("F_k", "kappa-recursion"),
        ("G_k", "partition-sum"), ("G_k", "recursion"),
        ("h_l", "recursion"), ("f_kl", "recursion"),
        ("f", "oracle"), ("g", "oracle"), ("f_k", "oracle"), ("g_k", "oracle"),
        ("F_k", "oracle"), ("G_k", "oracle"), ("h_l", "oracle"), ("f_kl", "oracle"),
    ]
    assert list(cli._PARTITION_ROUTES) == [
        ("p_kl", "recursion"), ("r_l", "recursion"), ("r_lj", "recursion"),
        ("stirling2", "recursion"), ("bell", "recursion"),
        ("p_kl", "oracle"), ("r_l", "oracle"), ("r_lj", "oracle"),
    ]


def test_bench_single_repeat(capsys):
    code, out, _ = run(capsys, "bench", "f", "36", "--repeat", "1")
    assert code == 0
    lines = out.strip().splitlines()
    # header plus one row per applicable method
    assert len(lines) == 1 + len(cli.METHODS_FOR["f"])
    for line in lines[1:]:
        assert line.split()[1] == "9"


def test_bench_selected_methods(capsys):
    code, out, _ = run(
        capsys, "bench", "F_k", "96", "--k", "3",
        "--method", "partition-sum", "--method", "fedorov", "--repeat", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("partition-sum")
    assert lines[2].startswith("fedorov")
    # a method named twice is timed once
    code, out, _ = run(capsys, "bench", "f", "36", "--method", "oracle",
                       "--method", "oracle", "--repeat", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split()[:2] == ["oracle", "9"]


def test_compute_all_methods_skips_the_oracle_over_its_budget(capsys, monkeypatch):
    def over_budget(n, *args, **kwargs):
        raise oracle.OracleLimitError(f"more than 1 factorizations of {n}")

    monkeypatch.setattr(oracle, "profile", over_budget)
    code, out, err = run(capsys, "compute", "f_k", "36", "--k", "2", "--all-methods")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[-2:] == ["oracle skipped: more than 1 factorizations of 36",
                          "consistent: 4 methods agree"]
    assert lines[:-2] == [f"{m} 4" for m in cli.METHODS_FOR["f_k"] if m != "oracle"]


def test_compute_all_methods_json_puts_the_skip_note_on_stderr(capsys, monkeypatch):
    def over_budget(n, *args, **kwargs):
        raise oracle.OracleLimitError("over budget")

    monkeypatch.setattr(oracle, "profile", over_budget)
    code, out, err = run(capsys, "compute", "f", "36", "--all-methods", "--format", "json")
    assert code == 0 and err == "oracle skipped: over budget\n"
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["method"] for r in records] == [m for m in cli.METHODS_FOR["f"] if m != "oracle"]
    assert {r["value"] for r in records} == {"9"}


def test_compute_all_methods_still_refuses_disagreeing_methods_that_ran(capsys, monkeypatch):
    def over_budget(n, *args, **kwargs):
        raise oracle.OracleLimitError("over budget")

    monkeypatch.setattr(oracle, "profile", over_budget)
    monkeypatch.setitem(
        cli._FACTOR_ROUTES, ("f_k", "kappa-recursion"), lambda fi, k, l: 999
    )
    code, out, err = run(capsys, "compute", "f_k", "36", "--k", "2", "--all-methods")
    assert code == 1 and "MISMATCH" in err
    assert "oracle skipped: over budget" in out.splitlines()


def test_partition_oracle_refuses_past_its_budget_with_one_line(capsys, within_a_second):
    code, out, err = run(capsys, "compute", "p_kl", "150", "--k", "10", "--l", "2",
                         "--method", "oracle")
    assert (code, out) == (2, "")
    assert err == "error: more than 1000000 partitions of 150\n"
    code, out, err = run(capsys, "compute", "r_l", "200", "--l", "2", "--all-methods")
    assert code == 0
    assert out.splitlines()[1:] == ["oracle skipped: more than 1000000 partitions of 200",
                                    "consistent: 1 methods agree"]


def test_fedorov_refuses_past_the_budget_with_one_line_and_partition_sum_answers(
        capsys, within_a_second):
    code, out, err = run(capsys, "compute", "F_k", "2", "--k", "40", "--method", "fedorov")
    assert (code, out, err) == (2, "", "error: more than 1000000 compositions of 40\n")
    # partition-sum reads k = 61 as Omega(2) = 1 and walks one partition
    assert run(capsys, "compute", "F_k", "2", "--k", "61", "--method", "partition-sum") == (
        0, "1\n", "")
    code, out, err = run(capsys, "compute", "F_k", "2", "--k", "61", "--all-methods")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "partition-sum 1", "recursion 1", "kappa-recursion 1", "oracle 1",
        "fedorov skipped: more than 1000000 compositions of 61",
        "consistent: 4 methods agree",
    ]
    # the default route of F_k is partition-sum
    assert run(capsys, "bfile", "F_k", "--max", "5", "--k", "61") == (
        0, "2 1\n3 1\n4 2\n5 1\n", "offset 2\n")


def test_g_k_by_partition_sum_answers_a_k_past_the_budget_at_once(capsys, within_a_second):
    # G_i(2) is 0 past Omega(2) + 1 = 2, so the sum stops there
    assert run(capsys, "compute", "g_k", "2", "--k", "61", "--method", "partition-sum") == (
        0, "0\n", "")
    code, out, err = run(capsys, "compute", "g_k", "2", "--k", "61", "--all-methods")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "recursion 0", "partition-sum 0", "kappa-recursion 0", "oracle 0",
        "consistent: 4 methods agree",
    ]


@pytest.mark.parametrize("k", [cli.factorize(36).big_omega + 65, 10**30])
def test_a_k_past_omega_gets_its_exact_value_or_the_route_refusal(capsys, within_a_second, k):
    # past Omega + 1 no count changes with k: F_k stays at f = 9, the others are
    # 0; only fedorov, which walks every k, refuses
    refusals = {"fedorov": f"more than 1000000 compositions of {k}"}
    for function in ("f_k", "g_k", "F_k", "G_k", "f_kl"):
        query = ("compute", function, "36", "--k", str(k),
                 *(("--l", "1") if function == "f_kl" else ()))
        expected = 9 if function == "F_k" else 0
        methods = cli.METHODS_FOR[function]
        kept = [m for m in methods if m not in refusals]
        assert run(capsys, *query, "--all-methods") == (0, "".join(
            [*(f"{m} {expected}\n" for m in kept),
             *(f"{m} skipped: {refusals[m]}\n" for m in methods if m in refusals),
             f"consistent: {len(kept)} methods agree\n"]), ""), function
        for method in refusals.keys() & set(methods):
            assert run(capsys, *query, "--method", method) == (2, "", f"error: {refusals[method]}\n")


def test_compute_oracle_alone_over_its_budget_exits_2(capsys, monkeypatch):
    def over_budget(n, *args, **kwargs):
        raise oracle.OracleLimitError("over budget")

    monkeypatch.setattr(oracle, "profile", over_budget)
    code, out, err = run(capsys, "compute", "f", "36", "--method", "oracle")
    assert (code, out, err) == (2, "", "error: over budget\n")


@pytest.mark.parametrize("flags, count, weight, message", [
    (("--method", "recursion"), 1, 0, "f_k_rec((2,), 2): sum 3 not divisible by 2"),
    # recursion and partition-sum agree first; kappa-recursion then fails
    (("--all-methods",), 0, 1, "f_k_kappa((2,), 2): sum 3 not divisible by 2"),
])
def test_compute_integrity_failure_exits_1_with_one_line(capsys, monkeypatch, flags,
                                                         count, weight, message):
    plant_off_by_one_entry(monkeypatch, 2, (), count, weight)
    code, out, err = run(capsys, "compute", "f_k", "4", "--k", "2", *flags)
    assert (code, out, err) == (1, "", f"internal error: {message}\n")


def test_compute_factors_n_once_for_all_methods(capsys, monkeypatch):
    calls = []
    real = cli.factorize

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cli, "factorize", counted)
    code, out, _ = run(capsys, "compute", "f_k", "720720", "--k", "3", "--all-methods")
    assert code == 0 and out.endswith("consistent: 5 methods agree\n")
    assert calls == [720720]


def test_bench_skips_a_method_over_its_budget(capsys, monkeypatch):
    def over_budget(n, *args, **kwargs):
        raise oracle.OracleLimitError(f"more than 1 factorizations of {n}")

    monkeypatch.setattr(oracle, "profile", over_budget)
    code, out, _ = run(capsys, "bench", "f_k", "36", "--k", "2", "--repeat", "1")
    assert code == 0
    rows = {line.split()[0]: line.split()[1:] for line in out.strip().splitlines()[1:]}
    assert list(rows) == list(cli.METHODS_FOR["f_k"])
    assert rows["oracle"] == ["skipped:", "more", "than", "1", "factorizations", "of", "36"]
    assert all(rows[m][0] == "4" for m in rows if m != "oracle")


def test_bench_still_refuses_disagreeing_methods_that_ran(capsys, monkeypatch):
    def over_budget(n, *args, **kwargs):
        raise oracle.OracleLimitError("over budget")

    monkeypatch.setattr(oracle, "profile", over_budget)
    monkeypatch.setitem(
        cli._FACTOR_ROUTES, ("f_k", "kappa-recursion"), lambda fi, k, l: 999
    )
    code, out, err = run(capsys, "bench", "f_k", "36", "--k", "2", "--repeat", "1")
    assert code == 1
    assert out == "" and "MISMATCH" in err


@pytest.mark.parametrize("argv", [
    ("compute", "f_k", "36", "--k", "-3"),
    ("compute", "h_l", "36", "--l", "-1"),
    ("compute", "f_kl", "36", "--k", "3", "--l", "-2"),
    ("compute", "stirling2", "4", "--k", "-1"),
    ("bfile", "g_k", "--k", "-1", "--max", "10"),
    ("bench", "F_k", "36", "--k", "-1", "--repeat", "1"),
])
def test_negative_indices_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "must be >= 0" in err


@pytest.mark.parametrize("n", [str(10**14 + 1), str(10**40)])
def test_n_above_max_n_exits_2(capsys, n):
    code, out, err = run(capsys, "compute", "f", n)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "n <= 100000000000000" in err


@pytest.mark.parametrize("argv", [
    ("compute", "bell", "500"),
    ("compute", "bell", "500", "--format", "json"),
    ("bfile", "bell", "--max", "500"),
])
def test_values_longer_than_the_int_str_limit_print(capsys, argv):
    # B(500) has 844 digits; the interpreter's int -> str limit must not turn
    # an exact value into a usage error
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0, err
    last = out.strip().split("\n")[-1]
    value = json.loads(last)["value"] if "--format" in argv else last.split()[-1]
    assert value == str(partition_counts.bell(500))


@pytest.mark.parametrize("argv", [
    ("compute", "bell", str(cli.STIRLING_MAX_N + 1)),
    ("compute", "stirling2", str(cli.STIRLING_MAX_N + 1), "--k", "2"),
    ("bfile", "bell", "--max", str(cli.STIRLING_MAX_N + 1)),
    ("bench", "bell", str(10**6), "--repeat", "1"),
])
def test_stirling_and_bell_refuse_n_above_their_cap(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[1]} requires n <= {cli.STIRLING_MAX_N}\n"


def test_zero_indices_are_accepted(capsys):
    assert run(capsys, "compute", "f_k", "36", "--k", "0")[:2] == (0, "0\n")
    assert run(capsys, "compute", "h_l", "1", "--l", "0")[:2] == (0, "1\n")


def test_recursion_too_deep_exits_2_with_one_line(capsys):
    # r_lj descends one frame per part size j, so n = 3000 exhausts the stack
    code, out, err = run(capsys, "compute", "r_lj", "3000", "--l", "1", "--j", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: r_lj n=3000:")


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "compute", "f_k", "36")[0] == 2  # missing --k
    assert run(capsys, "compute", "f", "36", "--k", "2")[0] == 2  # stray --k
    assert run(capsys, "compute", "f", "0")[0] == 2  # n out of range
    assert run(capsys, "compute", "r_lj", "5", "--l", "2", "--j", "0")[0] == 2
    assert run(capsys, "bfile", "f", "--max", "1")[0] == 2
    assert run(capsys, "bench", "f", "36", "--repeat", "0")[0] == 2
    assert run(capsys, "compute", "g", "36", "--method", "fedorov")[0] == 2


def test_argparse_bad_function_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "nosuch", "3"])
    assert exc.value.code == 2


def test_deterministic_output(capsys):
    first = run(capsys, "compute", "f_kl", "360", "--k", "3", "--l", "2")
    second = run(capsys, "compute", "f_kl", "360", "--k", "3", "--l", "2")
    assert first == second


def _readme_cli_lines():
    """The `multifact ...` lines of the code block under README.md's `## CLI`."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("multifact ")]


def test_readme_cli_block_is_found():
    assert len(_readme_cli_lines()) >= 5


@pytest.mark.parametrize("line", _readme_cli_lines(),
                         ids=lambda line: line.partition("#")[0].strip())
def test_readme_cli_examples_run(capsys, line):
    command, _, comment = line.partition("#")
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    comment = comment.strip()
    if comment.startswith("->"):
        assert out == comment[2:].strip() + "\n"


def test_readme_library_values_hold():
    # the same check runs as a script on every interpreter the CI job covers
    assert [value for _, value in readme_library.check()] == [52, 20, 20, 3, 15, 46, 52]
