#!/usr/bin/env python
"""Where one cell's memory goes: traced bytes by allocation site.

Builds a workload's program (untraced), then runs one approach over it
under ``tracemalloc`` and prints what is still allocated when the run
ends — the network and every node's state — grouped by source line,
largest first; before the table, what the oracle's ``compiled.truth()``
keeps allocated for the workload.  ``WORKLOAD`` is one of the
benchmark's workloads (``benchmarks/e2e/workloads.py``, at their
committed seeds) or a figure scenario key
(``repro.workload.scenarios.ALL_SCENARIOS``, at the largest point of
its subscription axis at scale ``ci``).

``--scan`` runs the cell untraced instead and prints how many
registrations the ingest index scans per arrival (the length of the
arriving sensor's registration list) and how many of them accept.

    python tools/cell_footprint.py WORKLOAD CELL [--smoke] [--top K] [--scan]

``--smoke`` takes the benchmark's smoke size (scale ``smoke`` for a
scenario).  No PYTHONPATH needed: the ``src/`` beside this file is the
one measured.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "benchmarks" / "e2e")]

import repro.matching.engine as engine_module  # noqa: E402
from repro.workload.program import execute_program  # noqa: E402
from repro.workload.scenarios import ALL_SCENARIOS, SCALE_PRESETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def compiled_program(workload: str, smoke: bool):
    if workload in WORKLOADS:
        deployment, program = WORKLOADS[workload].build(0, smoke)
    elif workload in ALL_SCENARIOS:
        scenario = ALL_SCENARIOS[workload]
        scale = SCALE_PRESETS["smoke" if smoke else "ci"]
        deployment = scenario.deployment()
        program = scenario.program(scenario.subscription_counts(scale)[-1])
    else:
        known = sorted(WORKLOADS) + sorted(ALL_SCENARIOS)
        raise SystemExit(f"unknown workload {workload!r}; expected one of {known}")
    return program.compile(deployment)


def site(frame) -> str:
    path = Path(frame.filename)
    if path.is_relative_to(SRC):
        path = path.relative_to(SRC)
    return f"{path}:{frame.lineno}"


def traced(snapshot) -> list[tracemalloc.Statistic]:
    return snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    ).statistics("lineno")


def truth_footprint(compiled) -> str:
    gc.collect()
    tracemalloc.start()
    truth = compiled.truth()  # alive: what the snapshot sees
    gc.collect()
    stats = traced(tracemalloc.take_snapshot())
    tracemalloc.stop()
    return (
        f"{sum(stat.size for stat in stats) / 2**10:.0f} KB in "
        f"{sum(stat.count for stat in stats)} blocks retained by "
        f"compiled.truth() ({len(truth)} subscriptions)"
    )


def footprint(compiled, cell: str, top: int) -> list[str]:
    truth = truth_footprint(compiled)
    gc.collect()
    tracemalloc.start()
    execution = execute_program(compiled, cell)  # alive: what the snapshot sees
    snapshot = tracemalloc.take_snapshot()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    stats = traced(snapshot)
    total = sum(stat.size for stat in stats)
    lines = [
        truth,
        f"{total / 2**20:.1f} MB traced at the end of the cell "
        f"(peak {peak / 2**20:.1f} MB), "
        f"{sum(stat.count for stat in stats)} blocks",
        f"{'size':>9} {'share':>6} {'blocks':>8}  site",
    ]
    for stat in stats[:top]:
        lines.append(
            f"{stat.size / 2**20:7.2f}MB {100 * stat.size / total:5.1f}% "
            f"{stat.count:8d}  {site(stat.traceback[0])}"
        )
    del execution
    return lines


def scan(compiled, cell: str) -> list[str]:
    scanned: list[int] = []
    accepted = 0
    accepting = engine_module._accepting

    def counted(registrations, attribute, value):
        nonlocal accepted
        found = accepting(registrations, attribute, value)
        scanned.append(len(registrations))
        accepted += len(found)
        return found

    engine_module._accepting = counted
    try:
        execute_program(compiled, cell)
    finally:
        engine_module._accepting = accepting
    if not scanned:
        return ["no arrival reached a registration list"]
    ordered = sorted(scanned)
    deciles = statistics.quantiles(ordered, n=10, method="inclusive")
    return [
        f"{len(ordered)} arrivals scanned a registration list",
        f"registrations per scan: mean {statistics.fmean(ordered):.1f}, "
        f"p50 {deciles[4]:g}, p90 {deciles[8]:g}, max {ordered[-1]}",
        f"accepting: {100 * accepted / sum(ordered):.0f}% of registrations scanned",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("cell", help="an approach key, e.g. multijoin")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument(
        "--scan", action="store_true", help="registrations scanned per arrival"
    )
    args = parser.parse_args(argv)
    compiled = compiled_program(args.workload, args.smoke)
    if args.scan:
        lines = scan(compiled, args.cell)
    else:
        lines = footprint(compiled, args.cell, args.top)
    print(f"{args.workload} / {args.cell}{' (smoke)' if args.smoke else ''}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
