#!/usr/bin/env python
"""The counted performance record: calls per reading, per cell, per phase.

For every benchmark workload (``benchmarks/e2e/workloads.py``, seed 0,
full size) and every approach cell it runs, this executes the cell's
``execute_program`` under ``cProfile`` and writes ``BENCH_counts.json``
at the repository root:

* ``calls``: Python and builtin calls in each facade phase — ``create``
  (``Session.create`` and what precedes the first settled submit),
  ``submit`` (the settled setup submits) and ``replay`` (from
  ``Session.ingest_events`` to the end, mid-replay admissions included)
  — and their ``total``; ``per_reading`` divides each by the number of
  replayed readings;
* ``layers``: the same calls by package — ``repro.<subpackage>`` for
  code under ``src/repro/<subpackage>/``, ``repro`` for the top-level
  modules, ``python`` for everything else (standard library, this
  harness) — with every builtin call charged to the package of the
  Python function that called it;
* ``sweeps``: calls of ``OperatorMatcher.matches_involving``, the
  benchmark trace's ``matching.probes``;
* ``cover_decisions``: calls of a node's coverage rule
  (``is_covered``, ``pairwise_covered``);
* ``digest``: the benchmark's per-cell digest of the simulated outcome.

A count is taken after one warm-up run of every cell of the workload,
so lazy imports and first-read caches are paid before it; each
workload runs in its own interpreter, under ``PYTHONHASHSEED=0``.  The
file records the interpreter and numpy versions: standard-library and
numpy Python code is counted too, so counts are comparable only under
the same versions of both (CI pins them to the recorded ones).

    python tools/counts.py                 # regenerate BENCH_counts.json
    python tools/counts.py --check         # regenerate in memory and diff

``--check`` prints every count that moved against the committed file
and exits 1 when a cell's total calls, sweeps or cover decisions rose
by more than 2%, or a cell's digest changed.  A change that moves them
on purpose regenerates the file and lists the moved cells.  No
PYTHONPATH needed: the ``src/`` beside this file is the one counted.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "BENCH_counts.json"
sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]

PHASES = ("create", "submit", "replay")
GATED = ("total", "sweeps", "cover_decisions")
RISE_BOUND = 0.02
COVER_RULES = ("is_covered", "pairwise_covered")


def layer_of(code: Any) -> str:
    """The package a profiled code object belongs to."""
    if isinstance(code, str):  # a builtin
        return "builtins"
    path = Path(code.co_filename)
    if not path.is_relative_to(SRC / "repro"):
        return "python"
    parts = path.relative_to(SRC).parts
    return "repro" if len(parts) == 2 else f"repro.{parts[1]}"


class PhaseProfiles:
    """One ``cProfile.Profile`` per phase, switched at the two facade
    calls that open a phase (class-level patches, removed on exit)."""

    def __init__(self) -> None:
        self.profiles = {phase: cProfile.Profile() for phase in PHASES}
        self.active = "create"

    def switch(self, phase: str) -> None:
        if phase != self.active:
            self.profiles[self.active].disable()
            self.active = phase
            self.profiles[phase].enable()

    def run(self, compiled: Any, cell: str) -> Any:
        from repro.api.session import Session
        from repro.workload.program import execute_program

        submit, ingest = Session.submit, Session.ingest_events
        profiles = self

        def counted_submit(session: Any, *args: Any, **kwargs: Any) -> Any:
            if kwargs.get("settle", True) and profiles.active == "create":
                profiles.switch("submit")
            return submit(session, *args, **kwargs)

        def counted_ingest(session: Any, *args: Any, **kwargs: Any) -> Any:
            profiles.switch("replay")
            return ingest(session, *args, **kwargs)

        Session.submit, Session.ingest_events = counted_submit, counted_ingest
        previous = sys.getprofile()  # disable() clears it: put it back
        try:
            self.profiles["create"].enable()
            try:
                return execute_program(compiled, cell)
            finally:
                self.profiles[self.active].disable()
                sys.setprofile(previous)
        finally:
            Session.submit, Session.ingest_events = submit, ingest


def tally(profiles: PhaseProfiles, readings: int) -> dict[str, Any]:
    calls = dict.fromkeys(PHASES, 0)
    layers: dict[str, int] = {}
    sweeps = decisions = 0
    unattributed = 0  # builtin calls not yet charged to a caller
    for phase, profile in profiles.profiles.items():
        for entry in profile.getstats():
            calls[phase] += entry.callcount
            code = entry.code
            layer = layer_of(code)
            if layer == "builtins":
                unattributed += entry.callcount
            else:
                layers[layer] = layers.get(layer, 0) + entry.callcount
            for sub in entry.calls or ():
                if isinstance(sub.code, str):
                    layers[layer] = layers.get(layer, 0) + sub.callcount
                    unattributed -= sub.callcount
            if layer.startswith("repro"):
                if code.co_qualname == "OperatorMatcher.matches_involving":
                    sweeps += entry.callcount
                elif code.co_name in COVER_RULES:
                    decisions += entry.callcount
    # A builtin called by a builtin, or with no profiled caller, has no
    # package to charge.
    if unattributed:
        layers["builtins"] = layers.get("builtins", 0) + unattributed
    calls["total"] = sum(calls[phase] for phase in PHASES)
    return {
        "calls": calls,
        "per_reading": {k: round(v / readings, 1) for k, v in calls.items()},
        "layers": dict(sorted(layers.items())),
        "sweeps": sweeps,
        "cover_decisions": decisions,
    }


def count_workload(name: str) -> dict[str, Any]:
    """Every cell of one workload, in this process."""
    from e2e.measure import _digest
    from e2e.workloads import WORKLOADS
    from repro.workload.program import execute_program

    workload = WORKLOADS[name]
    deployment, program = workload.build(0, False)
    compiled = program.compile(deployment, program.source(deployment))
    readings = len(compiled.events)
    for cell in workload.cells:  # warm-up
        execute_program(compiled, cell)
    cells: dict[str, Any] = {}
    for cell in workload.cells:
        gc.collect()
        profiles = PhaseProfiles()
        execution = profiles.run(compiled, cell)
        cells[cell] = tally(profiles, readings)
        cells[cell]["digest"] = _digest(
            execution.final, execution.session.network.delivery
        )
    return {"readings": readings, "cells": cells}


def environment() -> dict[str, str]:
    """The versions whose Python code the counts include."""
    import numpy

    return {"numpy": numpy.__version__, "python": platform.python_version()}


def collect() -> dict[str, Any]:
    """Each workload in a fresh interpreter under a fixed hash seed."""
    from e2e.workloads import WORKLOADS

    env = dict(os.environ, PYTHONHASHSEED="0")
    workloads = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--one", name],
            env=env,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        workloads[name] = json.loads(done.stdout)
    return {**environment(), "seed": 0, "workloads": workloads}


def dump(record: dict[str, Any]) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def flatten(value: Any, prefix: str = "") -> dict[str, Any]:
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for key, inner in value.items():
            out.update(flatten(inner, f"{prefix}.{key}" if prefix else key))
        return out
    return {prefix: value}


def compare(old: dict[str, Any], new: dict[str, Any]) -> tuple[list[str], list[str]]:
    """(every moved count, the moves that fail the check)."""
    moved: list[str] = []
    failed: list[str] = []
    for name in sorted(set(old["workloads"]) | set(new["workloads"])):
        before = old["workloads"].get(name, {}).get("cells", {})
        after = new["workloads"].get(name, {}).get("cells", {})
        for cell in sorted(set(before) | set(after)):
            where = f"{name}/{cell}"
            if cell not in before or cell not in after:
                failed.append(f"{where}: only in the {'new' if cell in after else 'old'} record")
                continue
            a, b = flatten(before[cell]), flatten(after[cell])
            for key in sorted(set(a) | set(b)):
                x, y = a.get(key), b.get(key)
                if x == y:
                    continue
                if isinstance(x, (int, float)) and isinstance(y, (int, float)) and x:
                    line = f"{where} {key}: {x} -> {y} ({(y - x) / x:+.1%})"
                else:
                    line = f"{where} {key}: {x} -> {y}"
                moved.append(line)
                gated = key.rpartition(".")[2] in GATED and key != "per_reading.total"
                if key == "digest" or (gated and y > x * (1 + RISE_BOUND)):
                    failed.append(line)
    return moved, failed


def main(argv: list[str] | None = None) -> int:
    from e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--one", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(count_workload(args.one)))
        return 0
    if args.check:
        committed = json.loads(OUT.read_text())
        counted = {key: committed.get(key) for key in environment()}
        if counted != environment():
            print(
                f"{OUT.name} was counted under {counted}; this is "
                f"{environment()}: counts are not comparable"
            )
            return 1
    record = collect()
    if not args.check:
        OUT.write_text(dump(record))
        print(f"wrote {OUT.relative_to(ROOT)}")
        return 0
    moved, failed = compare(committed, record)
    for line in moved:
        print(line)
    if not moved:
        print(f"{OUT.name}: every count as committed")
    for line in failed:
        print(f"FAIL {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
