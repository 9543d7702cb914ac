#!/usr/bin/env python
"""Which functions of ``src/repro`` does the product reach?

Runs the product drivers (the four ``BENCHMARK.json`` workloads at
smoke size, every example, the smoke figure suite, the catalog,
``experiments-md`` and ``repro-lint``) and then the tests (tier-1 and
``benchmarks/test_*.py`` at smoke scale), each in its own interpreter
under a function-level ``sys.setprofile`` hook, and prints every
function of the package as

* ``driver``      a driver called it,
* ``tests-only``  only a test called it,
* ``nothing``     nothing called it.

A function no driver reaches has to be excused by ``reach_keep.txt``
beside this file (a named oracle, a fault path, documented facade...);
``--check`` exits non-zero when one is not, or when a keep-list entry
names no function or carries no reason.  The report is printed, never
committed.

    python tools/reach.py [--check]

Standard library only (``coverage`` is not installed).  Runs take
about four times as long as without the hook.  ``REPRO_WORKERS=1``
throughout: pool workers do not inherit the hook, and neither do the
interpreters a test starts itself.  Benchmark cells run in-process
through ``run.py --child``.  A decorated function is keyed on its
first decorator line, which is where its code object says it starts.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
KEEP_FILE = Path(__file__).with_name("reach_keep.txt")

_CLI = ["-m", "repro.experiments.cli"]
_SMOKE_SUITE = ["--family", "beyond", "--scale", "smoke"]
DRIVERS: list[list[str]] = [
    *(
        ["benchmarks/e2e/run.py", "--child", "--workload", workload, "--smoke"]
        for workload in ("small_static", "shared_templates", "lifecycle_churn", "lossy_reliable")
    ),
    ["tools/run_examples.py"],
    [*_CLI, "--list"],
    [*_CLI, "all", *_SMOKE_SUITE],
    [*_CLI, "experiments-md", *_SMOKE_SUITE],
    ["-m", "repro.analysis"],
]
TIER1: list[list[str]] = [["-m", "pytest", "-x", "-q"]]
FIGURE_BENCHMARKS: list[list[str]] = [  # under REPRO_SCALE=smoke
    ["-m", "pytest", "-x", "-q", "benchmarks", "--ignore=benchmarks/e2e"]
]

Key = tuple[str, int]  # (path relative to the package, first line of the code object)


# ---------------------------------------------------------------------------
# what exists
# ---------------------------------------------------------------------------
def inventory(package: Path) -> dict[Key, tuple[str, int]]:
    """Every ``def`` under ``package``: key -> (qualified name, lines)."""
    found: dict[Key, tuple[str, int]] = {}
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        for qualname, node in _functions(ast.parse(path.read_text()), ""):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            found[relative, first] = (qualname, (node.end_lineno or first) - first + 1)
    return found


def _functions(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.FunctionDef]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child  # type: ignore[misc]
            yield from _functions(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


# ---------------------------------------------------------------------------
# what runs: `reach.py --record OUT PACKAGE -- ARGV` in a fresh interpreter
# ---------------------------------------------------------------------------
def record(out: Path, package: Path, argv: list[str]) -> int:
    """Run ``argv`` (``-m module ...`` or ``script ...``) as ``__main__``
    under the hook; write the code objects of ``package`` it entered."""
    entered: set = set()
    add = entered.add

    def hook(frame, event, _arg):  # one set insert per Python call
        if event == "call":
            add(frame.f_code)

    status = 0
    sys.setprofile(hook)
    try:
        # sys.path[0] is this file's directory; make it what `python ARGV` has.
        if argv[0] == "-m":
            sys.argv = argv[1:]
            sys.path[0] = os.getcwd()
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            sys.path[0] = str(Path(argv[0]).resolve().parent)
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exit_:
        status = exit_.code if isinstance(exit_.code, int) else int(exit_.code is not None)
    finally:
        sys.setprofile(None)
        package = package.resolve()
        prefix = str(package) + os.sep
        hits = sorted(
            (Path(code.co_filename).relative_to(package).as_posix(), code.co_firstlineno)
            for code in entered
            if code.co_filename.startswith(prefix)
        )
        out.write_text(json.dumps(hits))
    return status


def reached(commands: Iterable[list[str]], package: Path, cwd: Path, env: dict[str, str]) -> set[Key]:
    """The union of what ``commands`` enter; a failing command is fatal."""
    hits: set[Key] = set()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "hits.json"
        for argv in commands:
            print(f"reach: {' '.join(argv)}", file=sys.stderr, flush=True)
            done = subprocess.run(
                [sys.executable, __file__, "--record", str(out), str(package), "--", *argv],
                cwd=cwd, env=env, stdout=subprocess.DEVNULL,
            )
            if done.returncode != 0:
                raise SystemExit(f"reach: {' '.join(argv)} exited {done.returncode}")
            hits.update((path, line) for path, line in json.loads(out.read_text()))
    return hits


# ---------------------------------------------------------------------------
# the verdict
# ---------------------------------------------------------------------------
def classify(
    functions: dict[Key, tuple[str, int]], by_drivers: set[Key], by_tests: set[Key]
) -> dict[Key, str]:
    return {
        key: "driver" if key in by_drivers else "tests-only" if key in by_tests else "nothing"
        for key in functions
    }


def load_keep(path: Path) -> tuple[list[tuple[str, str]], list[str]]:
    """``(pattern, reason)`` pairs and the format errors of a keep-list.

    A line ``== reason`` opens a group; every other non-comment line
    is a pattern ``path::qualified.name`` (``fnmatch`` wildcards) kept
    for the reason of its group.
    """
    entries: list[tuple[str, str]] = []
    errors: list[str] = []
    reason = ""
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if line.startswith("=="):
            reason = line[2:].strip()
        elif line and not line.startswith("#"):
            if "::" not in line:
                errors.append(f"{path.name}:{number}: {line!r} is not path::name")
            if not reason:
                errors.append(f"{path.name}:{number}: {line!r} has no reason")
            entries.append((line, reason))
    return entries, errors


def judge(
    functions: dict[Key, tuple[str, int]],
    verdict: dict[Key, str],
    keep: list[tuple[str, str]],
) -> tuple[dict[Key, str], list[str]]:
    """Reason per excused function, and what ``--check`` fails on."""
    names = {key: f"{key[0]}::{functions[key][0]}" for key in functions}
    excused: dict[Key, str] = {}
    problems: list[str] = []
    for pattern, reason in keep:
        matched = [key for key, name in names.items() if fnmatch.fnmatchcase(name, pattern)]
        if not matched:
            problems.append(f"stale keep-list entry (names no function): {pattern}")
        for key in matched:
            excused.setdefault(key, reason)
    for key, kind in sorted(verdict.items()):
        if kind != "driver" and key not in excused:
            problems.append(f"{kind}, not on the keep-list: {names[key]} (line {key[1]})")
    return excused, problems


def report(functions, verdict, excused) -> str:
    lines = []
    totals: dict[str, list[int]] = {}
    for key in sorted(functions):
        qualname, length = functions[key]
        kind = verdict[key]
        if kind != "driver":
            kind += " (kept)" if key in excused else " (UNEXCUSED)"
        count = totals.setdefault(kind, [0, 0])
        count[0] += 1
        count[1] += length
        lines.append(f"{kind:<24}{key[0]}::{qualname}  [{length}]")
    lines.append("")
    for kind in sorted(totals):
        lines.append(f"{kind:<24}{totals[kind][0]:>5} functions {totals[kind][1]:>6} lines")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--record"]:  # internal: the traced child
        return record(Path(argv[1]), Path(argv[2]), argv[4:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unexcused function or a bad keep-list entry")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_WORKERS="1")
    env.pop("REPRO_SCALE", None)
    functions = inventory(PACKAGE)
    by_drivers = reached(DRIVERS, PACKAGE, ROOT, env)
    by_tests = reached(TIER1, PACKAGE, ROOT, env)
    by_tests |= reached(FIGURE_BENCHMARKS, PACKAGE, ROOT, dict(env, REPRO_SCALE="smoke"))
    verdict = classify(functions, by_drivers, by_tests)
    keep, problems = load_keep(KEEP_FILE)
    excused, unexcused = judge(functions, verdict, keep)
    problems += unexcused
    print(report(functions, verdict, excused))
    for problem in problems:
        print(f"reach: {problem}")
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
