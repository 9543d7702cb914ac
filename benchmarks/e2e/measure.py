"""The end-to-end measurement: set-up, timed repetitions, checks, metrics.

One *cell run* is one approach executing the workload's compiled
program through ``execute_program`` (``Session.create``, the settled
setup registrations, the replay) followed by ``measure_recall`` — what
the figure suite pays per point beyond the shared oracle truth.  The
replay is pre-materialised on the virtual clock, so this is a closed
loop with one client: host speed never feeds back into simulated
behaviour, and every repetition of a cell must produce the same digest.

Nothing here passes ``matching=``, ``method=``/``oracle=`` or touches a
deprecated entry point: the run measures the installed defaults.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field
from time import perf_counter
from typing import Any, ContextManager

from repro.metrics.recall import measure_recall
from repro.workload.program import execute_program

from .clock import calibrate, now, scale
from .trace import PhaseClock
from .workloads import Workload

SETUP_PASSES = 3
MIN_ROUNDS = 3
DETERMINISTIC = ("naive", "operator_placement", "multijoin", "centralized")
"""Approaches that must reach recall 1.0 on a fault-free static workload."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
@dataclass
class Prepared:
    """A workload built for one seed: everything the cells share."""

    workload: Workload
    compiled: Any
    truths: Any
    readings: int
    build_s: float
    source_s: float
    compile_s: float
    truth_s: float

    @property
    def total_s(self) -> float:
        return self.build_s + self.source_s + self.compile_s + self.truth_s


def prepare(workload: Workload, seed: int, smoke: bool) -> Prepared:
    """Deployment, program source, compiled timeline and oracle truth."""
    t0 = now()
    deployment, program = workload.build(seed, smoke)
    t1 = now()
    source = program.source(deployment)
    t2 = now()
    compiled = program.compile(deployment, source)
    t3 = now()
    truths = compiled.truth()
    t4 = now()
    return Prepared(
        workload=workload,
        compiled=compiled,
        truths=truths,
        readings=len(compiled.events),
        build_s=t1 - t0,
        source_s=t2 - t1,
        compile_s=t3 - t2,
        truth_s=t4 - t3,
    )


# ---------------------------------------------------------------------------
# one cell run
# ---------------------------------------------------------------------------
@dataclass
class CellRun:
    """One approach over the compiled program, timed and digested."""

    cell: str
    scale: float = 1.0  # CPU seconds -> reference seconds (clock.scale)
    cpu_s: float = 0.0
    create_s: float = 0.0
    submit_s: list[float] = field(default_factory=list)
    ingest_s: float = 0.0
    replay_s: float = 0.0
    recall_s: float = 0.0
    final: Any = None
    report: Any = None
    sim_events: int = 0
    digest: str = ""
    failures: list[str] = field(default_factory=list)


def run_cell(prepared: Prepared, cell: str, clock: PhaseClock) -> CellRun:
    """Execute one cell; a raising cell is recorded, not propagated."""
    run = CellRun(cell)
    clock.reset()
    start = now()
    try:
        execution = execute_program(prepared.compiled, cell)
        executed = now()
        network = execution.session.network
        run.report = measure_recall(prepared.truths, network.delivery)
    except Exception as exc:  # a failed cell is a failed operation
        run.failures.append(f"raised {type(exc).__name__}: {exc}")
        return run
    end = now()
    run.cpu_s = end - start
    run.recall_s = end - executed
    run.create_s = clock.create_s
    run.submit_s = list(clock.submit_s)
    run.ingest_s = clock.ingest_s
    run.replay_s = clock.replay_s
    run.final = execution.final
    run.sim_events = getattr(network.sim, "processed_events", 0)
    run.digest = _digest(execution.final, network.delivery)
    run.failures = check_cell(prepared.workload, run)
    return run


def _digest(final: Any, delivery: Any) -> str:
    """Traffic totals plus exactly which events reached which user."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(astuple(final)).encode())
    for sub_id in delivery.subscriptions():
        h.update(sub_id.encode())
        h.update(repr(sorted(delivery.delivered(sub_id))).encode())
    return h.hexdigest()


def check_cell(workload: Workload, run: CellRun) -> list[str]:
    """Correctness checks on one cell run; returns what failed."""
    failures: list[str] = []
    final, report = run.final, run.report
    for subset, parent in (
        (final.teardown_units, final.subscription_units),
        (
            final.retransmission_units,
            final.subscription_units + final.event_units + final.advertisement_units,
        ),
        (final.refresh_units, final.subscription_units + final.advertisement_units),
        (final.sketch_units, final.subscription_units + final.event_units),
    ):
        if not 0 <= subset <= parent:
            failures.append(f"subset meter {subset} outside [0, {parent}]")
    if report.delivered_instances > report.true_instances:
        failures.append("more instances delivered than the oracle holds")
    if report.true_instances == 0:
        failures.append("oracle holds no instance: the workload measures nothing")
    if workload.strict and run.cell in DETERMINISTIC:
        if report.recall != 1.0:
            failures.append(f"recall {report.recall:.6f} != 1.0 (deterministic cell)")
        if run.cell != "multijoin" and report.false_positive_events:
            failures.append(f"{report.false_positive_events} false-positive events")
    return failures


def run_round(
    prepared: Prepared,
    clock: PhaseClock,
    reference: dict[str, str],
    around_cell: ContextManager[Any] = nullcontext(),
) -> list[CellRun]:
    """One repetition of every cell, in the workload's cell order.

    ``reference`` maps cell -> digest of its first run; a later run
    whose digest differs has changed the simulated outcome.
    ``around_cell`` is entered around each cell run, after the
    collection that precedes it.  The calibration kernel runs between
    the cells; each run keeps the scale of its two neighbours.
    """
    runs: list[CellRun] = []
    before = calibrate()
    for cell in prepared.workload.cells:
        gc.collect()
        with around_cell:
            run = run_cell(prepared, cell, clock)
        after = calibrate()
        run.scale = scale(before, after)
        before = after
        if not run.failures:
            expected = reference.setdefault(cell, run.digest)
            if run.digest != expected:
                run.failures.append("digest differs from the cell's first run")
        runs.append(run)
    return runs


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count — how host-time metrics are reported."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the end-to-end run of one workload
# ---------------------------------------------------------------------------
def run_end_to_end(
    workload: Workload, seed: int, seconds: float, smoke: bool
) -> dict[str, Any]:
    """Set up, warm up, measure for ``seconds``, check, summarise.

    ``setup_s`` is the CPU time this process has used when the first
    timed repetition starts — interpreter start, imports, the build
    pass (deployment, source, compile, truth), one warm-up repetition
    per cell and the calibration kernel runs in between.  The build
    pass is repeated ``SETUP_PASSES`` times and counted once, at its
    median; the rest can only happen once per process.

    All host times are reference seconds (:mod:`.clock`); ``seconds``
    is a wall-clock window, so that a busy box cannot stretch the run.
    """
    kernel = [calibrate()]
    passes = [prepare(workload, seed, smoke) for _ in range(1 if smoke else SETUP_PASSES)]
    kernel.append(calibrate())
    prepared = passes[-1]
    build = [p.total_s for p in passes]

    digests: dict[str, str] = {}
    rounds: list[list[CellRun]] = []
    with PhaseClock() as clock:
        warmup = run_round(prepared, clock, digests)
        setup_s = (now() - sum(build) + statistics.median(build)) * statistics.median(
            [scale(k) for k in kernel] + [run.scale for run in warmup]
        )
        wall_start, cpu_start = perf_counter(), now()
        while not any(run.failures for run in warmup):
            round_runs = run_round(prepared, clock, digests)
            rounds.append(round_runs)
            elapsed = perf_counter() - wall_start
            if smoke or any(run.failures for run in round_runs):
                break
            # Stop when another round would overrun the window (but
            # never before MIN_ROUNDS: a median needs them).
            if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > seconds:
                break
        wall_over_cpu = (perf_counter() - wall_start) / max(now() - cpu_start, 1e-9)

    all_runs = warmup + [run for r in rounds for run in r]
    failed = [run for run in all_runs if run.failures]
    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "rounds": len(rounds),
        "cells": list(workload.cells),
        "readings": prepared.readings,
        "subscriptions": len(prepared.compiled.admissions),
        "ops_attempted": len(all_runs),
        "ops_failed": len(failed),
        "failures": [f"{run.cell}: {msg}" for run in failed for msg in run.failures],
        "correct": not failed,
        "wall_over_cpu": wall_over_cpu,
        "speed": statistics.median(run.scale for run in all_runs),
    }
    if failed:
        return result

    first = rounds[0]
    cells = len(workload.cells)
    submits = sorted(
        s * run.scale * 1e3 for r in rounds for run in r for s in run.submit_s
    )
    true = sum(run.report.true_instances for run in first)
    delivered = sum(run.report.delivered_instances for run in first)
    delivered_events = sum(run.report.delivered_events for run in first)
    false_positive = sum(run.report.false_positive_events for run in first)
    units = [
        run.final.subscription_units + run.final.event_units + run.final.advertisement_units
        for run in first
    ]

    def single(value: float, n: int = 1, exact: bool = False) -> dict[str, Any]:
        return {"value": value, "q1": None, "q3": None, "n": n, "exact": exact}

    result["answers_expected"] = true
    result["answers_missed"] = true - delivered
    result["metrics"] = {
        "setup_s": single(setup_s),
        "point_cpu_s": summary([sum(run.cpu_s * run.scale for run in r) for r in rounds]),
        "replay_readings_per_s": summary(
            [
                prepared.readings * cells / sum(run.replay_s * run.scale for run in r)
                for r in rounds
            ]
        ),
        "submit_ms_p50": single(percentile(submits, 0.50), len(submits)),
        "submit_ms_p95": single(percentile(submits, 0.95), len(submits)),
        "peak_rss_mb": single(peak_rss_mb()),
        "total_units": single(sum(units), exact=True),
        "event_units": single(sum(run.final.event_units for run in first), exact=True),
        "recall": single(delivered / true, exact=True),
        "precision": single(1.0 - false_positive / max(1, delivered_events), exact=True),
    }
    result["per_cell"] = {
        run.cell: {
            "cpu_s": statistics.median(r[i].cpu_s * r[i].scale for r in rounds),
            "replay_s": statistics.median(r[i].replay_s * r[i].scale for r in rounds),
            "recall": run.report.recall,
            "false_positive_rate": run.report.false_positive_rate,
            "total_units": units[i],
            "sim_events": run.sim_events,
            "digest": run.digest,
        }
        for i, run in enumerate(first)
    }
    return result
