"""Mutation census of one ``src/sicbell`` module.

Each mutant is the module with one change to its syntax tree:

* a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``in`` and ``not in``, ``is`` and ``is not``;
* an arithmetic operator swapped: ``+`` and ``-``, ``*`` and ``/``,
  ``//`` to ``/``, ``%`` to ``//``, ``**`` to ``*``, ``@`` to ``*``;
* ``and`` and ``or`` swapped;
* a ``not`` or a unary minus dropped;
* an int constant plus 1, or a float constant doubled;
* the test of an ``if`` whose body raises turned into ``False``.

The mutant is written, through ``ast.unparse``, into a copy of the
repository.  There it runs the module's own test file,
``tests/test_<module>.py``, then the rest of tier-1 less this script's
smoke test, each with ``-x`` and ``--hypothesis-profile=ci``.  A mutant that fails a test is killed;
one whose test run passes ``TIMEOUT`` seconds is timed out, and counts
as killed.  The unmutated round trip runs first and must pass.  The
script has no ``test_`` prefix, so pytest does not collect it; run it as

    PYTHONPATH=src python tests/mutation_census.py --module montecarlo

It prints the killed, survived and timed-out counts and each survivor
with its line, and exits 1 when a survivor is not in ``ALLOWED``.  An
``ALLOWED`` entry ``module:line:mutation`` covers every mutant of that
kind on the line, and says why it may survive.
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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sicbell"
# every module but the package file, which only imports
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
TIMEOUT = 60.0

COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
           ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
              ast.Div: ast.Mult, ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv,
              ast.Pow: ast.Mult, ast.MatMult: ast.Mult}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
          ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
          ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
          ast.MatMult: "@", ast.And: "and", ast.Or: "or"}

# each survivor that stays, as "module:line:mutation", and why; "moves the
# tail" is the largest relative change of _poisson_lower_tail over 9,718
# random inputs, group totals 1 to 1e19, against its 2e-3 error bound
ALLOWED = {
    "catalog:263:1 -> 2": "numpy 2.4 reads any negative size in reshape as the inferred one",
    "catalog:281:1e-09 -> 2e-09": "the float Gram of the catalog sets reads at most 5.6e-17 on "
                                  "an orthogonal pair and at least 1/3 on any other, so "
                                  "1e-9 and 2e-9 split them alike",
    "catalog:281:< -> <=": "only a float inner product of exactly 1e-9 tells them apart; "
                           "the catalog sets read at most 5.6e-17 or at least 1/3",
    "cli:149:0 -> 1": "a replicates count of 1, like 0, is in range and dropped",
    "cli:153:< -> <=": "0 is in range, so no refused count is 0",
    "cli:153:0 -> 1": "no refused whole count lies in 0 <= count < 1",
    "cli:224:1 -> 2": "a table's key occurs once in the head as '<key>: null'",
    "cli:273:330 -> 331": "a float quantized to 1e-6 needs at most 315 digits (309 before "
                          "the point, 6 after): 330 and 331 both hold it",
    "montecarlo:39:21 -> 22": "a 22nd series term is below 1e-18 of g(y) for |y| < 1",
    "montecarlo:83:< -> <=": "an exposure of 0 draws all-zero counts, and CountRecord "
                             "refuses it with the same message",
    "montecarlo:107:0 -> 1": "a count of 1 has error bar sqrt(1) = 1, as an empty setting",
    "montecarlo:124:< -> <=": "groups hold no zero level",
    "montecarlo:126:> -> >=": "groups hold no zero level",
    "montecarlo:138:100 -> 101": "no input is known to reach the cap: Newton took at most 4 "
                                 "iterations over 1,200 run_experiment inputs at 1e6 to 1e16 "
                                 "pairs per setting",
    "montecarlo:142:1e-10 -> 2e-10": "Newton's last step lands far inside either bound; "
                                     "moves the tail by at most 5.3e-9",
    "montecarlo:142:<= -> <": "only a slope exactly at the bound tells them apart",
    "montecarlo:143:4 -> 5": "a stop test 5 ulps wide in place of 4; moves the tail by at "
                             "most 6.1e-7 over 1,200 run_experiment inputs at 1e6 to 1e16 "
                             "pairs per setting",
    "montecarlo:143:1.0 -> 2.0": "a stop test 8 ulps wide in place of 4; moves the tail by at "
                                 "most 1.6e-6 over the same 1,200 inputs",
    "montecarlo:145:1 -> 2": "2 + |t| also keeps exp in range on every input, and only "
                             "changes the path to the root; moves the tail by at most 3.7e-9",
    "montecarlo:148:1 -> 2": "for 1 <= |y| <= 2 the series matches the closed form "
                             "within 1.3e-12",
    "montecarlo:148:< -> <=": "at |y| = 1 the series matches the closed form within 1.3e-12",
}


def _swap(node, field, table, index=None):
    """A site that swaps the operator ``node.<field>`` (or its
    ``index``-th entry) by ``table``, or None."""
    ops = getattr(node, field)
    op = ops if index is None else ops[index]
    if type(op) not in table:
        return None
    new = table[type(op)]

    def apply():
        if index is None:
            setattr(node, field, new())
        else:
            ops[index] = new()
    return f"{SYMBOL[type(op)]} -> {SYMBOL[new]}", apply


def _replace(parent, field, old, new):
    """Put ``new`` where ``old`` stands among ``parent.<field>``."""
    value = getattr(parent, field)
    if isinstance(value, list):
        value[value.index(old)] = new
    else:
        setattr(parent, field, new)


def _bumped(value):
    return value + 1 if type(value) is int else value * 2


def _sites(tree: ast.Module) -> list:
    """``(line, mutation, apply)`` for every mutant of ``tree``, in a
    fixed order: ``apply()`` makes that one change in place."""
    sites = []
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            for node in value if isinstance(value, list) else [value]:
                if not isinstance(node, ast.AST):
                    continue
                found = []
                if isinstance(node, ast.Compare):
                    found += [_swap(node, "ops", COMPARE, k) for k in range(len(node.ops))]
                elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                    found.append(_swap(node, "op", ARITHMETIC))
                elif isinstance(node, ast.BoolOp):
                    found.append(_swap(node, "op", BOOLEAN))
                elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
                    found.append(("drop " + ("not" if isinstance(node.op, ast.Not) else "-"),
                                  lambda p=parent, f=field, n=node: _replace(p, f, n, n.operand)))
                elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                      and _bumped(node.value) != node.value):  # 0.0 doubled is 0.0
                    new = _bumped(node.value)
                    found.append((f"{node.value!r} -> {new!r}",
                                  lambda n=node, v=new: setattr(n, "value", v)))
                elif (isinstance(node, ast.If)
                      and any(isinstance(stmt, ast.Raise) for stmt in node.body)):
                    found.append(("if raise -> if False",
                                  lambda n=node: setattr(n, "test", ast.Constant(False))))
                sites += [(node.lineno, *site) for site in found if site]
    return sites


def source(module: str) -> str:
    return (SRC / f"{module}.py").read_text(encoding="utf-8")


def mutants(module: str) -> list:
    """``(line, mutation)`` of each mutant of ``module``, in order."""
    return [(line, mutation) for line, mutation, _ in _sites(ast.parse(source(module)))]


def mutant_source(module: str, index: int) -> str:
    """The module's text with its ``index``-th mutation applied."""
    tree = ast.parse(source(module))
    _sites(tree)[index][2]()
    return ast.unparse(ast.fix_missing_locations(tree))


def _pytest(tree: Path, args: list) -> str:
    """"passed", "failed" or "timed out" for one pytest run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=ci", *args], cwd=tree, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=TIMEOUT) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # with any process a test started
        proc.wait()
        return "timed out"


def verdict(tree: Path, module: str, text: str) -> str:
    """"killed", "survived" or "timed out" for the module text ``text``."""
    (tree / "src" / "sicbell" / f"{module}.py").write_text(text, encoding="utf-8")
    own = Path("tests") / f"test_{module}.py"
    # the census's own smoke test reads line numbers, which ast.unparse moves
    stages = [["tests", "--ignore", str(own), "--ignore", "tests/test_mutation_census.py"]]
    if (tree / own).exists():
        stages.insert(0, [str(own)])
    for args in stages:
        outcome = _pytest(tree, args)
        if outcome != "passed":
            return "killed" if outcome == "failed" else outcome
    return "survived"


def census(module: str, jobs: int) -> int:
    found = mutants(module)
    lines = source(module).splitlines()
    scratch = Path(tempfile.mkdtemp(prefix="census-"))
    trees = Queue()
    try:
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                        ".pytest_cache", "*.egg-info", ".perfbench_out")
        for k in range(jobs):
            shutil.copytree(ROOT, scratch / str(k), ignore=ignore)
            trees.put(scratch / str(k))

        def run(text):
            tree = trees.get()
            try:
                return verdict(tree, module, text)
            finally:
                trees.put(tree)

        start = time.perf_counter()
        if run(ast.unparse(ast.parse(source(module)))) != "survived":
            print(f"{module}: the unmutated round trip fails tier-1", file=sys.stderr)
            return 2
        with ThreadPoolExecutor(jobs) as pool:
            outcomes = list(pool.map(lambda k: run(mutant_source(module, k)),
                                     range(len(found))))
    finally:
        shutil.rmtree(scratch)

    counts = {kind: outcomes.count(kind) for kind in ("killed", "survived", "timed out")}
    print(f"{module}: {len(found)} mutants, {counts['killed']} killed, "
          f"{counts['survived']} survived, {counts['timed out']} timed out "
          f"({time.perf_counter() - start:.0f} s)")
    unlisted = 0
    for (line, mutation), outcome in sorted(zip(found, outcomes)):
        if outcome == "survived":
            key = f"{module}:{line}:{mutation}"
            reason = ALLOWED.get(key)
            unlisted += reason is None
            print(f"  {'allowed ' if reason else 'SURVIVED'} {key}  "
                  f"{lines[line - 1].strip()}" + (f"\n      ({reason})" if reason else ""))
    return int(unlisted > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", required=True, choices=MODULES)
    parser.add_argument("--jobs", type=int, default=1,
                        help="mutants tested at once, each in its own copy")
    args = parser.parse_args(argv)
    return census(args.module, max(args.jobs, 1))


if __name__ == "__main__":
    sys.exit(main())
