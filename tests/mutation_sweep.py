"""Mutation sweep: how many single-token mutants of the recursion modules,
of the composition weights and of the CLI that checks them `verify` kills.

Each mutant changes one token of `counting.py`, `partition_counts.py`,
`partitions.py` or `cli.py`, whose relation and identity tables `verify`
reads: `+` <-> `-`, `*` -> `+`, `<` <-> `<=`, `>` <-> `>=`, `==` <-> `!=`, or
an int constant plus 1.  The sites are found with :mod:`ast`, and each mutant
is written, by :func:`ast.unparse`, into a temporary copy of `src`, never into
the checkout.  The unmutated `multifact.cli verify --max 40` runs once first;
then each mutant runs it in a fresh process, at most two at once.  A nonzero
exit, or a stdout that differs from the unmutated run's (a check count that
moved), kills it; a run past TIMEOUT_S is stopped and counted as hung, which
kills it too; the same output with exit 0 lets it survive.

    python tests/mutation_sweep.py

prints one line per survivor and per hung mutant, then the killed, hung and
survived counts per module, and exits 1 when a module has more survivors
than its ceiling in SURVIVED_AT_MOST.  A slower machine can only turn a
survivor into a hang, so the ceiling does not depend on the machine.  The
file is not named test_*.py, so pytest does not collect it.
"""

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("counting.py", "partition_counts.py", "partitions.py", "cli.py")
# the survivors per module that the sweep accepts; lower a ceiling when tests
# or verify kill more, and raise one only with a note on why each new
# survivor is equivalent
SURVIVED_AT_MOST = {"counting.py": 20, "partition_counts.py": 52, "partitions.py": 7, "cli.py": 54}
JOBS = 2
TIMEOUT_S = 20

# each operator and the one it is swapped for
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}

# the CLI under a 1 GiB address-space limit, so a mutant that allocates
# without bound fails with MemoryError instead of taking the machine's memory
RUN_CLI = ("import resource, runpy; "
           "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
           "runpy.run_module('multifact.cli', run_name='__main__')")


def sites(tree):
    """Yield (node, slot, label) for each mutable token of `tree`, in the
    fixed order of :func:`ast.walk`; slot is None for a BinOp's or an
    AugAssign's operator and a Constant's value, else the index into a
    Compare's ops."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            yield node, None, f"{type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}"
        elif isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, slot, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, None, f"{node.value} -> {node.value + 1}"


def mutants(source: str):
    """Yield (line, column, label, mutated source) for each site of `source`."""
    count = sum(1 for _ in sites(ast.parse(source)))
    for index in range(count):
        tree = ast.parse(source)  # a fresh tree, so each mutant changes one token
        node, slot, label = next(islice(sites(tree), index, None))
        if isinstance(node, ast.Constant):
            node.value += 1
        elif slot is None:
            node.op = SWAPS[type(node.op)]()
        else:
            node.ops[slot] = SWAPS[type(node.ops[slot])]()
        yield node.lineno, node.col_offset, label, ast.unparse(tree)


def run_verify(copy):
    """The exit code and stdout of `verify --max 40` on a copy of src, or None
    for a run past TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-c", RUN_CLI, "verify", "--max", "40"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode, done.stdout


def run_mutant(copies, module, source, expected):
    """'killed', 'hung' or 'survived' for `source` in place of `module` in
    one of the temporary copies of src, against the unmutated run `expected`."""
    copy = copies.get()
    path = copy / "multifact" / module
    original = path.read_text()
    try:
        path.write_text(source)
        run = run_verify(copy)
        if run is None:
            return "hung"
        return "survived" if run == expected else "killed"
    finally:
        path.write_text(original)
        copies.put(copy)


def main() -> None:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.Queue()
        for i in range(JOBS):
            copy = Path(tmp) / str(i)
            shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            copies.put(copy)
        expected = run_verify(Path(tmp) / "0")
        if expected is None or expected[0]:
            sys.exit(f"the unmutated verify --max 40 did not pass: {expected}")
        with ThreadPoolExecutor(JOBS) as pool:
            runs = [(module, line, col, label,
                     pool.submit(run_mutant, copies, module, source, expected))
                    for module in MODULES
                    for line, col, label, source in mutants((SRC / "multifact" / module).read_text())]
            counts = {module: {"killed": 0, "hung": 0, "survived": 0} for module in MODULES}
            for module, line, col, label, future in runs:
                outcome = future.result()
                counts[module][outcome] += 1
                if outcome != "killed":
                    print(f"{outcome} {module}:{line}:{col} {label}")
    for module, c in counts.items():
        print(f"{module}: {sum(c.values())} mutants, {c['killed']} killed, "
              f"{c['hung']} hung, {c['survived']} survived")
    print(f"{sum(sum(c.values()) for c in counts.values())} mutants in "
          f"{time.perf_counter() - start:.0f} s")
    over = [f"{module} {c['survived']} > {SURVIVED_AT_MOST[module]}"
            for module, c in counts.items() if c["survived"] > SURVIVED_AT_MOST[module]]
    if over:
        print("more survivors than the ceiling:", ", ".join(over))
        sys.exit(1)


if __name__ == "__main__":
    main()
