"""Bit-identity of the program-driven runner vs the historical wiring.

The experiment runner was re-platformed from hand-rolled
``Network``+``Simulator`` construction onto workload programs executed
through the Session facade.  The figure history must stay comparable:
a **settled program with admit-at-t=0 and no retire** has to reproduce
the pre-facade fixed-prefix ``run_point`` results *exactly* — every
``RunResult`` field, across all five approaches and both matching
modes.

``legacy_run_point`` below is a faithful transcription of the retired
wiring (fresh simulator, manual populate/attach/flood, sequential
settled registrations, raw ``schedule_timeline`` replay); the suite
machine-checks the facade path against it, including under churn, and
pins the sharded runner to the same results.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import (
    REPLAY_START,
    RunResult,
    run_point,
    run_program,
    shifted_churn,
)
from repro.metrics.oracle import compute_truth
from repro.metrics.recall import measure_recall
from repro.network.network import Network
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.sim import Simulator
from repro.workload.program import WorkloadProgram
from repro.workload.sensorscope import (
    ChurnConfig,
    DynamicReplayConfig,
    ReplayConfig,
    build_dynamic_replay,
    build_replay,
)
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)

MATCHING_MODES = ("incremental", "reference")


def legacy_run_point(
    approach,
    deployment,
    placed,
    events,
    truths=None,
    delta_t=5.0,
    latency=0.05,
    churn=None,
    matching="incremental",
) -> RunResult:
    """The pre-program experiment wiring, preserved verbatim as the
    reference the facade path is pinned against."""
    sim = Simulator(seed=deployment.seed)
    network = Network(
        deployment, sim, latency=latency, delta_t=delta_t, matching=matching
    )
    approach.populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    after_ads = network.meter.snapshot()
    for item in placed:
        network.register_subscription(item.node_id, item.subscription)
        network.run_to_quiescence()
    after_subs = network.meter.snapshot()
    assert sim.now < REPLAY_START
    node_of_sensor = {s.sensor_id: s.node_id for s in deployment.sensors}
    sim.schedule_timeline(
        (
            event.timestamp,
            lambda e=event: network.publish(node_of_sensor[e.sensor_id], e),
        )
        for event in events
    )
    if churn is not None:
        network.schedule_churn(churn)
    network.run_to_quiescence()
    final = network.meter.snapshot()
    if truths is None:
        truths = compute_truth(
            [p.subscription for p in placed], deployment, events, churn=churn
        )
    report = measure_recall(truths, network.delivery)
    sub_traffic = after_subs.minus(after_ads)
    event_traffic = final.minus(after_subs)
    return RunResult(
        approach=approach.key,
        n_subscriptions=len(placed),
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
        sim_events=sim.processed_events,
        reflood_load=final.advertisement_units - after_ads.advertisement_units,
        admit_load=event_traffic.subscription_units
        - event_traffic.teardown_units,
        teardown_load=event_traffic.teardown_units,
        retired_queries=0,
    )


@pytest.fixture(scope="module")
def static_workload():
    deployment = build_deployment(24, 3, seed=2)
    replay = build_replay(deployment, ReplayConfig(rounds=6, seed=3))
    workload = generate_subscriptions(
        deployment,
        replay.medians,
        SubscriptionWorkloadConfig(
            n_subscriptions=8, attrs_min=3, attrs_max=5, seed=2
        ),
        spreads=replay.spreads,
    )
    return deployment, workload, replay.shifted(REPLAY_START)


@pytest.fixture(scope="module")
def churn_workload():
    deployment = build_deployment(24, 3, seed=4)
    replay = build_dynamic_replay(
        deployment,
        DynamicReplayConfig(days=2, rounds_per_day=6, day_seconds=100.0),
        ChurnConfig(cycle_fraction=0.3),
    )
    workload = generate_subscriptions(
        deployment,
        replay.medians,
        SubscriptionWorkloadConfig(
            n_subscriptions=6, attrs_min=3, attrs_max=5, seed=4
        ),
        spreads=replay.spreads,
    )
    return (
        deployment,
        workload,
        replay.shifted(REPLAY_START),
        shifted_churn(replay),
    )


class TestSettledProgramBitIdentity:
    """The satellite acceptance check: settled admit-at-t=0, no retire,
    machine-checked equal to the historical wiring."""

    @pytest.mark.parametrize("matching", MATCHING_MODES)
    def test_all_approaches_static(self, static_workload, matching, facade_matching):
        facade_matching(matching)
        deployment, workload, events = static_workload
        for key, approach in all_approaches().items():
            expected = legacy_run_point(
                approach, deployment, workload, events, matching=matching
            )
            actual = run_point(approach, deployment, workload, events)
            assert actual == expected, (key, matching)
            assert actual.retired_queries == 0
            assert actual.teardown_load == 0

    @pytest.mark.parametrize("matching", MATCHING_MODES)
    def test_all_approaches_under_churn(
        self, churn_workload, matching, facade_matching
    ):
        """Churn keeps the advertisement channel live mid-replay; the
        facade path must still match the historical wiring exactly."""
        facade_matching(matching)
        deployment, workload, events, churn = churn_workload
        for key, approach in all_approaches().items():
            expected = legacy_run_point(
                approach,
                deployment,
                workload,
                events,
                churn=churn,
                matching=matching,
            )
            actual = run_point(
                approach, deployment, workload, events, churn=churn
            )
            assert actual == expected, (key, matching)
            assert actual.reflood_load > 0

    def test_program_entry_point_matches_run_point(self, static_workload):
        """Driving the same prefix through an actual WorkloadProgram
        (source -> compile -> run_program) is the same experiment."""
        deployment, workload, events = static_workload
        program = WorkloadProgram(
            subscriptions=SubscriptionWorkloadConfig(
                n_subscriptions=8, attrs_min=3, attrs_max=5, seed=2
            ),
            replay=ReplayConfig(rounds=6, seed=3),
        )
        compiled = program.compile(deployment)
        approach = all_approaches()["fsf"]
        assert run_program(approach, compiled) == run_point(
            approach, deployment, workload, events
        )

    def test_program_truth_equals_direct_truth(self, static_workload):
        deployment, workload, events = static_workload
        program = WorkloadProgram(
            subscriptions=SubscriptionWorkloadConfig(
                n_subscriptions=8, attrs_min=3, attrs_max=5, seed=2
            ),
            replay=ReplayConfig(rounds=6, seed=3),
        )
        compiled = program.compile(deployment)
        direct = compute_truth(
            [p.subscription for p in workload], deployment, events
        )
        via_program = compiled.truth()
        assert set(via_program) == set(direct)
        for sub_id, truth in via_program.items():
            assert truth.triggers == direct[sub_id].triggers
            assert truth.participants == direct[sub_id].participants
