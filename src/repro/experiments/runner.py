"""Experiment runner — the measurement protocol of Section VI, driven
by workload programs through the Session facade.

For every measurement point the paper reports ("we measure the
performance of each approach after every new batch of 100
subscriptions") we run a fresh session per (approach, subscription
count): the same deployment, the same subscription prefix in the same
registration order, and the same replayed event set — so approaches are
compared under identical conditions exactly as the paper ensures.

One point is one :class:`~repro.workload.program.CompiledProgram`
executed by :func:`repro.workload.program.execute_program`:

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

The legacy entry point ``run_point(approach, deployment, placed,
events, ...)`` is kept: it wraps its arguments into a setup-only
compiled program, so a settled admit-at-t=0 program reproduces the
historical fixed-prefix results bit-identically
(``tests/test_program_bit_identity.py`` pins them as goldens across all
five approaches and both matching modes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..metrics.approx import churn_fences, measure_approx
from ..metrics.oracle import SubscriptionTruth
from ..metrics.recall import measure_recall
from ..model.events import SimpleEvent
from ..network.topology import Deployment
from ..protocols.base import Approach
from ..workload.program import (
    REPLAY_START,
    Admission,
    CompiledProgram,
    execute_program,
)
from ..workload.scenarios import Scenario
from ..workload.sensorscope import ChurnSchedule
from ..workload.subscriptions import PlacedSubscription


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

    The approximate lane (``answer_mode="approximate"`` programs):
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
    delta_t: float = 5.0,
    latency: float = 0.05,
    oracle: str | None = None,
) -> RunResult:
    """Run one approach over one compiled program; see module docstring.

    ``truths`` lets a series share one oracle pass across approaches
    (the truth only depends on the program, never on the approach);
    ``None`` computes it here via ``compiled.truth(method=oracle)``.
    """
    execution = execute_program(
        compiled,
        approach,
        latency=latency,
        delta_t=delta_t,
    )
    if truths is None:
        truths = compiled.truth(method=oracle)
    network = execution.session.network
    report = measure_recall(truths, network.delivery)

    after_ads = execution.after_advertisements
    sub_traffic = execution.after_setup.minus(after_ads)
    event_traffic = execution.final.minus(execution.after_setup)
    teardown = event_traffic.teardown_units
    approx = measure_approx(
        network, compiled.events, churn_fences(compiled.churn)
    )
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


def run_point(
    approach: Approach,
    deployment: Deployment,
    placed: Sequence[PlacedSubscription],
    events: Sequence[SimpleEvent],
    truths: Mapping[str, SubscriptionTruth] | None = None,
    delta_t: float = 5.0,
    latency: float = 0.05,
    oracle: str | None = None,
    churn: ChurnSchedule | None = None,
) -> RunResult:
    """Run one approach on one already-materialised subscription prefix.

    The pre-program entry point, kept for callers that synthesize their
    own workload: it wraps ``placed``/``events``/``churn`` into a
    setup-only compiled program (every query admitted settled at t=0,
    none retired) and runs it through the facade — the settled program
    semantics the bit-identity goldens pin to the historical wiring.

    ``events`` is the replay already shifted to ``REPLAY_START``
    (``replay.shifted(REPLAY_START)``): the caller computes the oracle's
    ground truth from the same list, so the scheduled events and the
    truth inputs are literally the same objects — one materialisation
    per series, not one per (approach, count) point.  ``churn`` must be
    shifted to the same clock (``schedule.shifted(REPLAY_START)``).
    """
    compiled = CompiledProgram(
        deployment=deployment,
        events=tuple(events),
        churn=churn,
        admissions=tuple(
            Admission(
                sub_id=item.subscription.sub_id,
                node_id=item.node_id,
                subscription=item.subscription,
                admit=None,
                retire=None,
            )
            for item in placed
        ),
        replay_start=REPLAY_START,
        span=0.0,
    )
    return run_program(
        approach,
        compiled,
        truths=truths,
        delta_t=delta_t,
        latency=latency,
        oracle=oracle,
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

    def false_positive_series(self, approach_key: str) -> list[float]:
        return [r.false_positive_rate for r in self.results[approach_key]]

    def teardown_series(self) -> dict[str, list[int]]:
        """Per-approach ``UnsubscribeMessage`` units at each point."""
        return {
            key: [r.teardown_load for r in runs]
            for key, runs in self.results.items()
        }

    def reliability_overhead_series(self) -> dict[str, list[int]]:
        """Per-approach retransmit + refresh units at each point (the
        price of the reliability layer, figure 18's y-axis)."""
        return {
            key: [r.retransmission_load + r.refresh_load for r in runs]
            for key, runs in self.results.items()
        }


def run_series(
    scenario: Scenario,
    approaches: Mapping[str, Approach],
    scale: float | None = None,
    delta_t: float | None = None,
    latency: float = 0.05,
    oracle: str | None = None,
) -> SeriesResult:
    """All measurement points of one scenario for the given approaches.

    The scenario compiles to one workload program per point (the static
    prefix grows along the measurement axis; replay, churn and the
    lifecycle schedule are shared through one
    :class:`~repro.workload.program.ProgramSource`).  The oracle ground
    truth per point is computed once from the compiled program and
    shared by all approaches.  ``oracle`` selects the truth pass
    (engine / reference); ``None`` defers to the ``REPRO_ORACLE``
    environment default.
    """
    dt = scenario.delta_t if delta_t is None else delta_t
    deployment = scenario.deployment()
    counts = scenario.subscription_counts(scale)
    base = scenario.program(max(counts))
    source = base.source(deployment)
    series = SeriesResult(scenario, counts)
    for key in approaches:
        series.results[key] = []
    for n in counts:
        compiled = base.with_prefix(n).compile(deployment, source)
        truths = compiled.truth(method=oracle)
        for key, approach in approaches.items():
            series.results[key].append(
                run_program(
                    approach,
                    compiled,
                    truths=truths,
                    delta_t=dt,
                    latency=latency,
                )
            )
    return series


def shifted_churn(replay) -> ChurnSchedule | None:
    """The replay's churn schedule on the simulation clock, or None.

    Static replays carry no schedule; dynamic replays without cycling
    sensors collapse to None too, so the common path stays churn-free.
    """
    schedule = getattr(replay, "churn", None)
    if schedule is None or not schedule:
        return None
    return schedule.shifted(REPLAY_START)
