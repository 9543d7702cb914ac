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

from ..metrics.approx import measure_approx
from ..metrics.oracle import SubscriptionTruth
from ..metrics.recall import measure_recall
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

    ``advertisement_load`` is the setup-time flood (phase 1);
    ``reflood_load`` is every advertisement unit accrued *after* setup —
    the churn retraction floods and re-joins' re-floods.  Static
    scenarios measure 0 there.

    The query-lifecycle lane: ``n_subscriptions`` counts every
    admission (static prefix + scheduled), ``admit_load`` the mid-run
    subscription-channel units that are *not* teardown (scheduled
    registrations plus any teardown-repair re-dispatches), and
    ``teardown_load`` the ``UnsubscribeMessage`` units of the
    ``retired_queries`` retirements.  Programs without a lifecycle
    measure 0 on all three extras.

    The fault lane: ``retransmission_load`` are the units the
    reliability layer re-sent (whole-run total), ``refresh_load`` the
    units its soft-state refresh rounds carried, ``dropped_messages``
    the transmissions the fault plan lost.  Fault-free runs measure 0
    on all three.

    The approximate lane (programs with a ``sketch`` config):
    ``sketch_load`` is the subset of the standard channels the lane's
    own messages carried (tree setup on the subscription channel, push
    rounds on the event channel — already *included* in
    ``subscription_load``/``event_load``, never added on top);
    ``approx_queries``/``approx_mean_recall``/``approx_max_error``/
    ``approx_bound_violations`` summarise the oracle pass over the
    certified answers.  Exact-mode runs measure 0 everywhere and keep
    ``approx_mean_recall`` at its vacuous 0.0 default.
    """

    approach: str
    n_subscriptions: int
    subscription_load: int
    event_load: int
    advertisement_load: int
    recall: float
    false_positive_rate: float
    true_instances: int
    delivered_instances: int
    delivered_events: int
    dropped_subscriptions: int
    complex_deliveries: int
    sim_events: int
    reflood_load: int = 0
    admit_load: int = 0
    teardown_load: int = 0
    retired_queries: int = 0
    retransmission_load: int = 0
    refresh_load: int = 0
    dropped_messages: int = 0
    sketch_load: int = 0
    approx_queries: int = 0
    approx_mean_recall: float = 0.0
    approx_max_error: int = 0
    approx_bound_violations: int = 0


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
    report = measure_recall(truths, network.delivery)

    after_ads = execution.after_advertisements
    sub_traffic = execution.after_setup.minus(after_ads)
    event_traffic = execution.final.minus(execution.after_setup)
    teardown = event_traffic.teardown_units
    approx = measure_approx(network, compiled.events, compiled.fences)
    return RunResult(
        approach=approach.key,
        n_subscriptions=len(compiled.admissions),
        subscription_load=sub_traffic.subscription_units,
        event_load=event_traffic.event_units,
        advertisement_load=after_ads.advertisement_units,
        recall=report.recall,
        false_positive_rate=report.false_positive_rate,
        true_instances=report.true_instances,
        delivered_instances=report.delivered_instances,
        delivered_events=report.delivered_events,
        dropped_subscriptions=len(network.dropped_subscriptions),
        complex_deliveries=sum(network.delivery.complex_deliveries.values()),
        sim_events=network.sim.processed_events,
        reflood_load=execution.final.advertisement_units
        - after_ads.advertisement_units,
        admit_load=event_traffic.subscription_units - teardown,
        teardown_load=teardown,
        retired_queries=execution.retired,
        retransmission_load=execution.final.retransmission_units,
        refresh_load=execution.final.refresh_units,
        dropped_messages=execution.final.dropped_messages,
        sketch_load=execution.final.sketch_units,
        approx_queries=approx.queries,
        approx_mean_recall=approx.mean_recall if approx.stats else 0.0,
        approx_max_error=approx.max_observed_error,
        approx_bound_violations=approx.bound_violations,
    )


@dataclass
class SeriesResult:
    """A whole figure-pair worth of points: one scenario, all approaches."""

    scenario: Scenario
    counts: list[int]
    results: dict[str, list[RunResult]] = field(default_factory=dict)

    def subscription_series(self) -> dict[str, list[int]]:
        return {
            key: [r.subscription_load for r in runs]
            for key, runs in self.results.items()
        }

    def event_series(self) -> dict[str, list[int]]:
        return {
            key: [r.event_load for r in runs] for key, runs in self.results.items()
        }

    def recall_series(self, approach_key: str) -> list[float]:
        return [r.recall for r in self.results[approach_key]]


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
