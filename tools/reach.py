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

The same driver pass takes a knob census: for every defaulted
parameter of a package function a driver called (dataclass fields
included), whether any driver call passed a value other than the
default.  The parameters no driver varied are printed after the
report, as ``undriven`` lines; they are candidates for a literal, and
the census is a report, never a gate.  Generator functions are left
out: a resumed frame shows its reassigned locals, not its arguments.

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
import dataclasses
import fnmatch
import inspect
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
# the knob census: which defaulted parameters a run passed something else
# ---------------------------------------------------------------------------
_NOT_SEEN = object()
_RESUMABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


class KnobCensus:
    """Defaulted parameters of ``package`` seen at call time.

    ``knobs`` maps ``path::qualname(param)`` to ``[default repr,
    varied]``; a code object's pending list shrinks as its parameters
    are seen varied, so a hot function costs one dict lookup per call
    once every knob of it is settled.
    """

    def __init__(self, package: Path) -> None:
        self.package = package.resolve()
        self.prefix = str(self.package) + os.sep
        self.knobs: dict[str, list] = {}
        self._pending: dict = {}

    def observe(self, frame) -> None:
        code = frame.f_code
        pending = self._pending.get(code, _NOT_SEEN)
        if pending is _NOT_SEEN:
            pending = self._pending[code] = self._defaults(frame)
        if not pending:
            return
        local = frame.f_locals
        still = []
        for label, name, default in pending:
            if _same(local.get(name, default), default):
                still.append((label, name, default))
            else:
                self.knobs[label][1] = True
        self._pending[code] = still

    def _defaults(self, frame) -> list[tuple[str, str, object]]:
        code = frame.f_code
        if code.co_flags & _RESUMABLE:
            return []
        if code.co_filename.startswith(self.prefix):
            where, pairs = self._function_defaults(frame)
        elif code.co_name == "__init__" and code.co_filename == "<string>":
            where, pairs = self._dataclass_defaults(frame)
        else:
            return []
        pending = []
        for name, default in pairs:
            label = f"{where}({name})"
            self.knobs.setdefault(label, [repr(default), False])
            pending.append((label, name, default))
        return pending

    def _function_defaults(self, frame) -> tuple[str, list]:
        code = frame.f_code
        where = f"{Path(code.co_filename).relative_to(self.package).as_posix()}::{code.co_qualname}"
        parts = code.co_qualname.split(".")
        if "<locals>" in parts:
            return where, []
        target = frame.f_globals.get(parts[0])
        for part in parts[1:]:
            target = inspect.getattr_static(target, part, None)
        while True:
            if isinstance(target, (staticmethod, classmethod)):
                target = target.__func__
            elif hasattr(target, "__wrapped__"):
                target = target.__wrapped__
            else:
                break
        if getattr(target, "__code__", None) is not code:
            return where, []
        positional = code.co_varnames[: code.co_argcount]
        defaults = target.__defaults__ or ()
        pairs = list(zip(positional[len(positional) - len(defaults):], defaults))
        return where, pairs + list((target.__kwdefaults__ or {}).items())

    def _dataclass_defaults(self, frame) -> tuple[str, list]:
        owner = next(
            (
                klass
                for klass in type(frame.f_locals.get("self")).__mro__
                if getattr(vars(klass).get("__init__"), "__code__", None) is frame.f_code
            ),
            None,
        )
        module = sys.modules.get(getattr(owner, "__module__", ""))
        source = getattr(module, "__file__", None) or ""
        if not dataclasses.is_dataclass(owner) or not source.startswith(self.prefix):
            return "", []
        where = f"{Path(source).relative_to(self.package).as_posix()}::{owner.__qualname__}"
        pairs = []
        for field in dataclasses.fields(owner):
            if not field.init:
                continue
            if field.default is not dataclasses.MISSING:
                pairs.append((field.name, field.default))
            elif field.default_factory is not dataclasses.MISSING:
                pairs.append((field.name, field.default_factory()))
        return where, pairs


def _same(value: object, default: object) -> bool:
    try:
        return bool(value is default or value == default)
    except Exception:  # an ambiguous comparison (arrays): call it varied
        return False


def undriven(knobs: dict[str, list]) -> list[str]:
    """``path::qualname(param=default)`` of every knob no run varied."""
    return [
        f"{label[:-1]}={default})"
        for label, (default, varied) in sorted(knobs.items())
        if not varied
    ]


# ---------------------------------------------------------------------------
# what runs: `reach.py --record OUT PACKAGE -- ARGV` in a fresh interpreter
# ---------------------------------------------------------------------------
def record(out: Path, package: Path, argv: list[str]) -> int:
    """Run ``argv`` (``-m module ...`` or ``script ...``) as ``__main__``
    under the hook; write the code objects of ``package`` it entered,
    and the knob census to ``OUT.knobs.json``."""
    entered: set = set()
    add = entered.add
    census = KnobCensus(package)

    def hook(frame, event, _arg):  # one set insert and one census look per call
        if event == "call":
            add(frame.f_code)
            census.observe(frame)

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
        _knobs_file(out).write_text(json.dumps(census.knobs))
    return status


def _knobs_file(out: Path) -> Path:
    return out.with_suffix(".knobs.json")


def reached(
    commands: Iterable[list[str]],
    package: Path,
    cwd: Path,
    env: dict[str, str],
    knobs: dict[str, list] | None = None,
) -> set[Key]:
    """The union of what ``commands`` enter; a failing command is fatal.

    A ``knobs`` dict collects the census of every command (a knob is
    varied when any command varied it).
    """
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
            if knobs is not None:
                for label, (default, varied) in json.loads(_knobs_file(out).read_text()).items():
                    entry = knobs.setdefault(label, [default, False])
                    entry[1] = entry[1] or varied
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
    knobs: dict[str, list] = {}
    by_drivers = reached(DRIVERS, PACKAGE, ROOT, env, knobs)
    by_tests = reached(TIER1, PACKAGE, ROOT, env)
    by_tests |= reached(FIGURE_BENCHMARKS, PACKAGE, ROOT, dict(env, REPRO_SCALE="smoke"))
    verdict = classify(functions, by_drivers, by_tests)
    keep, problems = load_keep(KEEP_FILE)
    excused, unexcused = judge(functions, verdict, keep)
    problems += unexcused
    print(report(functions, verdict, excused))
    print("\n== defaulted parameters no driver varied (a report, not a gate)")
    for line in undriven(knobs):
        print(f"undriven  {line}")
    for problem in problems:
        print(f"reach: {problem}")
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
