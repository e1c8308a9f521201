"""A mutation sampler: how many one-operator faults do the tests catch?

Each mutant flips one operator in one module of `src/fairdetach`: a
single-operator comparison (< and <=, > and >=, == and !=) or the + or -
of a binary operation or an augmented assignment.  A mutant's key is
(module, enclosing function's qualified name, operator, index of that
operator within the function), so deleting a function elsewhere in the
module leaves every other key as it was.

For each mutant the sampler writes the mutated module with `ast.unparse`
into a temporary copy of `src/`, never into the checkout, and runs the
module's mapped test files against that copy with `pytest -x`, in a new
process session.  A failing run kills the mutant; so does a run that
outlives the timeout, whose whole process group is then killed.  Mutants
run one at a time, after one run of the unmutated module that must pass;
the timeout is TIMEOUT_FACTOR times that run's time, and at least
TIMEOUT_FLOOR_S, so a mutant that loops costs a few unmutated runs.

    python tests/mutate.py [MODULE ...]    run every mutant of the modules
    python tests/mutate.py --list          print every key, run nothing

A survivor in EQUIVALENT is reported with its reason; any other survivor,
and with `--list` any EQUIVALENT key that names no site, makes the exit
status 1.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "fairdetach"
# a mutant's timeout, from the time of the module's unmutated run
TIMEOUT_FACTOR = 5
TIMEOUT_FLOOR_S = 10.0

# (function, operator, index) within one module; EQUIVALENT prefixes the module
Key = Tuple[str, str, int]

FLIPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
}

# module -> the test files that run against its mutants
TESTS = {
    "bee": ("test_bee", "test_flows", "test_golden", "test_evencolor"),
    "flows": ("test_bee", "test_flows", "test_golden", "test_evencolor"),
    "evencolor": ("test_evencolor", "test_hamilton", "test_golden"),
    "verify": ("test_verify", "test_acceptance", "test_cli"),
    "hamilton": ("test_hamilton", "test_golden", "test_acceptance"),
    "multigraph": ("test_multigraph", "test_engine", "test_hamilton", "test_golden"),
    "engine": ("test_engine", "test_golden"),
    "document": ("test_cli",),
    "fuzzgen": ("test_golden", "test_cli"),
}

# mutants that no input can tell from the original, by (module, *key)
EQUIVALENT = {
    ("bee", "is_equitable", "aug:Add", 0):
        "subtracting every count negates it, which keeps each vertex's spread",
    ("flows", "Residual.__init__", "cmp:Gt", 0):
        "the clamp e if e > 0 else 0 gives 0 at e == 0 either way",
    ("flows", "Residual.__init__", "cmp:Lt", 0):
        "the clamp -e if e < 0 else 0 gives 0 at e == 0 either way",
    ("flows", "_max_flow", "cmp:Lt", 0):
        "a min boundary: both branches give the same value on a tie",
    ("flows", "_max_flow", "cmp:Lt", 1):
        "a min boundary: both branches give the same value on a tie",
    ("flows", "_max_flow", "cmp:Lt", 5):
        "a min boundary: both branches give the same value on a tie",
    ("flows", "_max_flow", "cmp:Lt", 6):
        "a min boundary: both branches give the same value on a tie",
    ("verify", "_key", "cmp:Lt", 0):
        "u < v and u <= v differ only at u == v, where both orders give (u, u)",
    ("verify", "_folded_cells", "bin:Add", 1):
        "subtracting every count negates every cell, which keeps the cells that differ",
    ("hamilton", "ham_decompose_lambda_kn", "bin:Sub", 0):
        "n + 1 and n - 1 have the same parity",
    ("hamilton", "gdd_feasible.parity_case", "bin:Sub", 0):
        "n + 1 and n - 1 have the same parity",
    ("multigraph", "Multigraph.pairs", "cmp:Lt", 0):
        "no row holds its own vertex, so u < v and u <= v agree",
    ("engine", "refine", "aug:Add", 2):
        "the degree is read only for its parity, and deg - n has the parity of deg + n",
    ("engine", "refine", "cmp:Gt", 0):
        "two singles pair into the same unit whether or not they share a component",
    ("engine", "refine", "cmp:Gt", 1):
        "the two ends of an unsettled unit differ, so a > b and a >= b agree",
    ("engine", "_union", "cmp:Lt", 0):
        "on a tie the root is made its own parent, which it already is",
    ("engine", "_union", "cmp:Lt", 1):
        "on a tie the root is made its own parent, which it already is",
    ("engine", "_by_label", "bin:Sub", 1):
        "both fans compared get the same color labels, shifted the same way",
    ("fuzzgen", "random_detach_instance", "cmp:Lt", 0):
        "rng.random() is never exactly 0.4 on a pinned seed, so < and <= draw alike",
    ("fuzzgen", "random_detach_instance", "cmp:Lt", 1):
        "rng.random() is never exactly 0.4 on a pinned seed, so < and <= draw alike",
    ("fuzzgen", "random_bipartite", "cmp:Lt", 0):
        "rng.random() is never exactly 0.4 on a pinned seed, so < and <= draw alike",
}


class _Sites(ast.NodeVisitor):
    """Every flippable node of a tree with its key, in tree order."""

    def __init__(self) -> None:
        self.scope: List[str] = []
        self.found: List[Tuple[Key, ast.AST]] = []
        self.count: Dict[Tuple[str, str], int] = {}

    def _scoped(self, node: ast.AST) -> None:
        self.scope.append(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _add(self, node: ast.AST, op: ast.AST, kind: str) -> None:
        if type(op) in FLIPS:
            where = ".".join(self.scope) or "<module>"
            name = f"{kind}:{type(op).__name__}"
            index = self.count.get((where, name), 0)
            self.count[(where, name)] = index + 1
            self.found.append(((where, name, index), node))

    def visit_Compare(self, node: ast.Compare) -> None:
        if len(node.ops) == 1:
            self._add(node, node.ops[0], "cmp")
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self._add(node, node.op, "bin")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._add(node, node.op, "aug")
        self.generic_visit(node)


def _sites(tree: ast.AST) -> List[Tuple[Key, ast.AST]]:
    visitor = _Sites()
    visitor.visit(tree)
    return visitor.found


def sites(source: str) -> List[Key]:
    """The key of every mutant of a module's source, in tree order."""
    return [key for key, _ in _sites(ast.parse(source))]


def mutant(source: str, key: Key) -> str:
    """The source with the one operator that `key` names flipped."""
    tree = ast.parse(source)
    node = dict(_sites(tree))[key]
    if isinstance(node, ast.Compare):
        node.ops[0] = FLIPS[type(node.ops[0])]()
    else:
        node.op = FLIPS[type(node.op)]()  # type: ignore[attr-defined]
    return ast.unparse(tree)


def _run_tests(module: str, source: str, timeout: Optional[float] = None) -> str:
    """'passed', 'failed' or 'timeout' for the module's tests with `source`
    standing in for the module, in a temporary copy of src/; with no
    `timeout`, the run may take as long as it takes."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "fairdetach" / f"{module}.py").write_text(source)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        tests = [str(ROOT / "tests" / f"{name}.py") for name in TESTS[module]]
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:  # after a timeout or an interrupt, end the run's process group
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code is None:
        return "timeout"
    return "passed" if code == 0 else "failed"


def run(modules: List[str]) -> int:
    unexplained = 0
    for module in modules:
        source = (PACKAGE / f"{module}.py").read_text()
        start = time.monotonic()
        if _run_tests(module, ast.unparse(ast.parse(source))) != "passed":
            print(f"{module}.py: the unmutated module fails its tests")
            return 1
        took = time.monotonic() - start
        timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * took)
        print(f"{module}.py: unmutated run {took:.1f} s, mutant timeout {timeout:.1f} s")
        keys = sites(source)
        killed = timeouts = 0
        for key in keys:
            start = time.monotonic()
            outcome = _run_tests(module, mutant(source, key), timeout)
            note = ""
            if outcome == "passed":
                note = EQUIVALENT.get((module, *key), "NOT KNOWN EQUIVALENT")
                unexplained += (module, *key) not in EQUIVALENT
            killed += outcome != "passed"
            timeouts += outcome == "timeout"
            status = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
            line = f"{status:8} {module} {' '.join(map(str, key))}"
            print(f"{line} ({time.monotonic() - start:.1f} s) {note}", flush=True)
        print(f"{module}.py: {killed} of {len(keys)} killed, {timeouts} by timeout")
    return 1 if unexplained else 0


def list_sites(modules: List[str]) -> int:
    known = set()
    for module in modules:
        for key in sites((PACKAGE / f"{module}.py").read_text()):
            known.add((module, *key))
            print(module, *key)
    stale = [key for key in EQUIVALENT if key[0] in modules and key not in known]
    for key in stale:
        print("stale equivalent key:", *key, file=sys.stderr)
    return 1 if stale else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE", help=", ".join(TESTS))
    parser.add_argument("--list", action="store_true", help="print the keys, run nothing")
    args = parser.parse_args(argv)
    modules = args.modules or list(TESTS)
    if not set(modules) <= set(TESTS):
        parser.error(f"modules must be among {', '.join(TESTS)}")
    if args.list:
        return list_sites(modules)
    return run(modules)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
