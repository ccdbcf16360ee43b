"""Statement-deletion sweep: which statements of a module can go unnoticed?

For one module of ``src/tautsig/``, each statement of each function body
(docstrings excluded, statements nested in blocks included) is replaced by
``pass``, one at a time.  Each mutant is then checked in three stages, in
order, until one fails it:

1. ``report``: ``tautsig run --suite all --format json`` must print the same
   bytes and exit with the same code as the unmutated tree;
2. ``module-tests``: the module's own test file, ``tests/test_<module>.py``,
   when there is one;
3. ``tier-1``: all of ``tests/``.

A statement whose mutant passes all three is a survivor: either no check
needs it, or its deletion is equivalent.  Each worker mutates its own copy
of the tree, and every pytest run starts with an empty hypothesis example
database, so that no example saved by one mutant decides a later one.  The
script uses the standard library only, and pytest does not collect it.

Usage, from the repository root::

    python tests/mutation_sweep.py hodge_numeric > sweep.jsonl

Output is one JSON line per mutant, in source order: the function's
qualified name, the line, the statement's first line and the stage that
killed it (``null`` for a survivor).  A mutant that runs past its stage's
time limit counts as killed by that stage.  The sweep runs one worker per
CPU; on a 2-vCPU host the 357 statements of hodge_numeric take about 15
minutes.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
REPORT = ["-m", "tautsig.cli", "run", "--suite", "all", "--format", "json"]
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
# Seconds a stage may take before its mutant counts as killed (a hang).
LIMITS = {"report": 120, "module-tests": 600, "tier-1": 1200}
_SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                               ".perfbench", ".benchmarks")


class Mutant(NamedTuple):
    function: str
    line: int
    statement: str
    source: str  # the whole module with the statement replaced by ``pass``


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, methods and nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield name, node
            yield from _functions(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        elif not isinstance(node, ast.Lambda):
            yield from _functions(node, prefix)


def _statements(body: list):
    """Every statement of a block and of the blocks nested in it, in order;
    nested function bodies are left to their own function."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for name in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, name, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _statements(handler.body)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def mutants(source: str) -> list[Mutant]:
    """One mutant per statement of every function body, in source order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    out = []
    for name, func in _functions(ast.parse(source)):
        body = func.body[1:] if _is_docstring(func.body[0]) else func.body
        for stmt in _statements(body):
            first = stmt.decorator_list[0] if getattr(stmt, "decorator_list", None) else stmt
            # A decorator's node starts after its "@".
            begin = starts[first.lineno - 1] + first.col_offset - (first is not stmt)
            end = starts[stmt.end_lineno - 1] + stmt.end_col_offset
            text = source[starts[stmt.lineno - 1] + stmt.col_offset:end]
            if text == "pass":
                continue
            # An elif branch owns the rest of the chain: deleting it leaves an
            # empty else.
            new = ("else:\n" + " " * (stmt.col_offset + 4) + "pass"
                   if text.startswith("elif") else "pass")
            mutated = source[:begin] + new + source[end:]
            compile(mutated, "<mutant>", "exec", dont_inherit=True)
            out.append(Mutant(name, stmt.lineno, text.splitlines()[0], mutated))
    return out


def _run(tree: Path, args: list, limit: int) -> Optional[tuple[int, bytes]]:
    """(exit code, stdout) of ``python args`` in ``tree``, or None past the limit."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    # No bytecode cache: two mutants of one size written in the same second
    # would share a stale one.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, *args], cwd=tree, env=env, timeout=limit,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode, done.stdout


def _stages(module: str) -> list[tuple[str, list]]:
    stages = [("report", REPORT)]
    own = Path("tests") / f"test_{module}.py"
    if (ROOT / own).exists():
        stages.append(("module-tests", [*PYTEST, str(own)]))
    return stages + [("tier-1", [*PYTEST, "tests"])]


def _killer(tree: Path, stages: list, report: tuple) -> Optional[str]:
    """The first stage the tree fails, or None."""
    for stage, args in stages:
        result = _run(tree, args, LIMITS[stage])
        if result is None or (result != report if stage == "report" else result[0] != 0):
            return stage
    return None


def sweep(module: str) -> None:
    workers = os.cpu_count() or 1
    path = Path("src") / "tautsig" / f"{module}.py"
    source = (ROOT / path).read_text()
    found = mutants(source)
    stages = _stages(module)
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as scratch:
        copies = queue.Queue()
        for k in range(workers):
            copy = Path(scratch) / str(k)
            shutil.copytree(ROOT, copy, ignore=_SKIP)
            copies.put(copy)
        tree = copies.get()
        report = _run(tree, REPORT, LIMITS["report"])
        if report is None or report[0] != 0:
            sys.exit("the unmutated report does not run cleanly")
        failed = _killer(tree, stages[1:], report)
        if failed is not None:
            sys.exit(f"the unmutated tree fails its {failed} stage")
        copies.put(tree)

        def check(mutant: Mutant) -> dict:
            tree = copies.get()
            try:
                (tree / path).write_text(mutant.source)
                killed = _killer(tree, stages, report)
            finally:
                (tree / path).write_text(source)
                copies.put(tree)
            return {"module": module, "function": mutant.function, "line": mutant.line,
                    "statement": mutant.statement, "killed_by": killed}

        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            for result in pool.map(check, found):
                print(json.dumps(result), flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/tautsig, such as hodge_numeric")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tautsig" / f"{args.module}.py").is_file():
        parser.error(f"no module src/tautsig/{args.module}.py")
    sweep(args.module)


if __name__ == "__main__":
    main()
