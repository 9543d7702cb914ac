"""Experiment runner — the measurement protocol of Section VI, driven
by workload programs through the Session facade.

For every measurement point the paper reports ("we measure the
performance of each approach after every new batch of 100
subscriptions") we run a fresh session per (approach, subscription
count): the same deployment, the same subscription prefix in the same
registration order, and the same replayed event set — so approaches are
compared under identical conditions exactly as the paper ensures.

One point is one :class:`~repro.workload.program.CompiledProgram`
executed by :func:`repro.workload.program.execute_program`
(:func:`run_program`):

1. ``Session.create`` populates nodes, attaches sensors and floods
   advertisements to quiescence (skipped flood for centralized);
2. the program's *setup admissions* (the static subscription prefix)
   register sequentially, settled after each — the traffic accrued here
   is the **subscription load**;
3. the replay is ingested at the program's fixed virtual start time,
   interleaved with churn transitions and query admit/retire edges; the
   event traffic accrued here is the **publication load**, and the
   subscription-channel traffic splits into mid-run **admission load**
   and **teardown load** (``UnsubscribeMessage`` units);
4. the delivery log is compared against the oracle, whose per-query
   truth is fenced to the program's scheduled ``[admit, retire]``
   lifetimes.

A series is the (count, approach) matrix of one scenario, and every cell
is an independent simulation, so :func:`run_series` — the only series
runner — is one partition / execute / merge:

* **partition** — one picklable :class:`PointTask` per cell, counts-major
  in caller approach order.  The approach travels as itself (every
  ``Approach`` pickles: a node factory is a module-level callable or a
  ``functools.partial`` of one), so a custom ``FSFConfig`` or an
  approach outside the registry reaches the workers unchanged;
* **execute** — :func:`run_task` mapped over the list: in this process
  at ``workers <= 1``, through ``ProcessPoolExecutor.map(...,
  chunksize=1)`` otherwise.  Each process memoises the scenario-level
  state (deployment, program source) and the current point (compiled
  program + oracle truth), so the approaches of one point share them;
* **merge** — positional, so the result is the same ``SeriesResult``
  under any worker count and any ``PYTHONHASHSEED`` (every random
  stream routes through :mod:`repro.seeding`; a worker re-synthesizing
  the replay draws exactly the events any sibling would).
  ``tests/test_parallel_runner.py`` machine-checks both.
"""

from __future__ import annotations

import functools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

from ..metrics.approx import ApproxReport, measure_approx
from ..metrics.oracle import SubscriptionTruth
from ..metrics.recall import RecallReport, measure_recall
from ..network.links import TrafficSnapshot
from ..protocols.base import Approach
from ..workload.program import (
    REPLAY_START,  # noqa: F401 -- re-exported: callers shift replays by it
    CompiledProgram,
    execute_program,
)
from ..workload.scenarios import Scenario, default_scale

WORKERS_ENV_VAR = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker-process count, overridable via the environment (default 1)."""
    raw = os.environ.get(WORKERS_ENV_VAR)  # repro-lint: ignore[env-read] -- documented REPRO_WORKERS knob, read once at experiment entry
    if raw is None:
        return 1
    workers = int(raw)
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {raw}")
    return workers


@dataclass(frozen=True, slots=True)
class RunResult:
    """Everything one (approach, subscription count) point produced.

    Six plain facts (``n_subscriptions`` counts every admission, static
    prefix and scheduled; ``retired_queries`` the lifecycle retirements)
    and three sections.

    Traffic: the meter's three cumulative readings as
    :func:`~repro.workload.program.execute_program` took them, after the
    advertisement flood, after the settled setup registrations, and at
    the end of the replay — a whole-run total reads ``final`` alone,
    a phase's share is one subtraction.  The advertisement phase
    carries only advertisement units and the setup phase no event or
    teardown units (``tests/test_phase_partition.py``), so the paper's
    subscription load is ``after_setup.subscription_units`` and its
    publication load ``final.event_units``.

    ``accuracy`` is the recall report over the delivery log,
    ``approx`` the oracle check of the sketch lane's certified answers
    (no answers on exact-mode runs).
    """

    approach: str
    n_subscriptions: int
    retired_queries: int
    dropped_subscriptions: int
    complex_deliveries: int
    sim_events: int
    after_advertisements: TrafficSnapshot
    after_setup: TrafficSnapshot
    final: TrafficSnapshot
    accuracy: RecallReport
    approx: ApproxReport


def run_program(
    approach: Approach,
    compiled: CompiledProgram,
    truths: Mapping[str, SubscriptionTruth] | None = None,
) -> RunResult:
    """Run one approach over one compiled program; see module docstring.

    ``truths`` lets a series share one oracle pass across approaches
    (the truth only depends on the program, never on the approach);
    ``None`` computes it here via ``compiled.truth()``.
    """
    execution = execute_program(compiled, approach)
    if truths is None:
        truths = compiled.truth()
    network = execution.session.network
    return RunResult(
        approach=approach.key,
        n_subscriptions=len(compiled.admissions),
        retired_queries=execution.retired,
        dropped_subscriptions=len(network.dropped_subscriptions),
        complex_deliveries=sum(network.delivery.complex_deliveries.values()),
        sim_events=network.sim.processed_events,
        after_advertisements=execution.after_advertisements,
        after_setup=execution.after_setup,
        final=execution.final,
        accuracy=measure_recall(truths, network.delivery),
        approx=measure_approx(network, compiled.events, compiled.fences),
    )


@dataclass
class SeriesResult:
    """A whole figure-pair worth of points: one scenario, all approaches."""

    scenario: Scenario
    counts: list[int]
    results: dict[str, list[RunResult]] = field(default_factory=dict)

    def subscription_series(self) -> dict[str, list[int]]:
        return {
            key: [r.after_setup.subscription_units for r in runs]
            for key, runs in self.results.items()
        }

    def event_series(self) -> dict[str, list[int]]:
        return {
            key: [r.final.event_units for r in runs]
            for key, runs in self.results.items()
        }

    def recall_series(self, approach_key: str) -> list[float]:
        return [r.accuracy.recall for r in self.results[approach_key]]


@dataclass(frozen=True)
class PointTask:
    """One (approach, subscription-count) cell of a scenario's matrix.

    Carries everything a worker needs and nothing process-bound: the
    scenario (seeds + picklable factory), the *resolved* scale, and the
    approach itself.
    """

    scenario: Scenario
    scale: float
    approach: Approach
    n: int


# Per-process memos, one entry each: a process walks one scenario at a
# time with non-decreasing ``n`` (the task list is counts-major), so the
# latest entry is the only one that can hit again — and a long-lived
# parent sweeping many scenarios in-process holds one of them, not all.
@functools.lru_cache(maxsize=1)
def _scenario_state(scenario: Scenario, scale: float):
    """(deployment, base program, program source) for one scenario +
    scale — the prefix-independent state every point of the scenario
    shares (replay synthesis, subscription pool, churn *and* lifecycle
    draws all live in the source)."""
    deployment = scenario.deployment()
    base = scenario.program(max(scenario.subscription_counts(scale)))
    return deployment, base, base.source(deployment)


@functools.lru_cache(maxsize=1)
def _compiled_point(scenario: Scenario, scale: float, n: int):
    """(compiled program, oracle truth) of one matrix point — shared by
    every approach of the cell; the truth depends on the program only."""
    deployment, base, source = _scenario_state(scenario, scale)
    compiled = base.with_prefix(n).compile(deployment, source)
    return compiled, compiled.truth()


def run_task(task: PointTask) -> RunResult:
    """Execute one matrix point — the worker entry (module-level, so it
    pickles by reference)."""
    compiled, truths = _compiled_point(task.scenario, task.scale, task.n)
    return run_program(task.approach, compiled, truths=truths)


def run_series(
    scenario: Scenario,
    approaches: Mapping[str, Approach],
    scale: float | None = None,
    workers: int | None = None,
) -> SeriesResult:
    """All measurement points of one scenario for the given approaches.

    The scenario compiles to one workload program per point (the static
    prefix grows along the measurement axis; replay, churn and the
    lifecycle schedule are shared through one
    :class:`~repro.workload.program.ProgramSource`), and the oracle
    truth per point is computed once and shared by all approaches.

    ``workers=None`` defers to the ``REPRO_WORKERS`` environment
    default.  The returned :class:`SeriesResult` is equal, ``RunResult``
    dataclass for dataclass and key order included, under any worker
    count and any ``PYTHONHASHSEED``; ``workers <= 1`` needs nothing to
    pickle, so it also runs scenarios built around a lambda.
    """
    eff_workers = default_workers() if workers is None else workers
    eff_scale = default_scale() if scale is None else scale
    counts = scenario.subscription_counts(eff_scale)
    # Counts-major, caller approach order: the positional merge below
    # and the workers' one-entry memos both rely on it.
    tasks = [
        PointTask(scenario, eff_scale, approach, n)
        for n in counts
        for approach in approaches.values()
    ]
    if eff_workers <= 1:
        results = [run_task(task) for task in tasks]
    else:
        try:
            pickle.dumps(tasks)
        except Exception as exc:
            raise ValueError(
                "scenario or approach is not picklable (deployment_factory "
                "and make_node must be module-level callables or "
                "functools.partial objects, not lambdas) — run with "
                f"workers=1 or fix the factory: {exc}"
            ) from exc
        # chunksize=1 keeps the partition point-grained (best balance
        # on long points); map() preserves input order.
        with ProcessPoolExecutor(
            max_workers=min(eff_workers, len(tasks))
        ) as pool:
            results = list(pool.map(run_task, tasks, chunksize=1))
    width = len(approaches)
    return SeriesResult(
        scenario,
        counts,
        {key: results[i::width] for i, key in enumerate(approaches)},
    )
