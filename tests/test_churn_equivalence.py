"""Machine-checked equivalence of the whole system under churn.

The dynamic workload (multi-day drifting replay + scheduled sensor
leave/rejoin) exercises paths the static replay never touches:
advertisement retraction floods, re-floods, store fences and the
churn-aware oracle.  This suite drives 150+ seeded dynamic scenarios
through

* both node-level matchers — every node's engine runs shadowed by the
  reference matcher (``tests/conftest.py``), so each arrival's hit map
  must equal the reference's, operator by operator;
* both oracle passes — ``compute_truth(method="engine")`` vs
  ``method="reference"`` must produce identical triggers and
  participants with a churn schedule fencing departed sensors;

plus hypothesis properties pinning the fence semantics itself: a
sensor's events never take part in a match computed after its scheduled
departure, and fencing only ever *removes* truth (churn-aware triggers
are a subset of the churn-blind ones over the same event set).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.runner import REPLAY_START
from repro.matching.engine import MatchingEngine
from repro.metrics.fences import Fences
from repro.metrics.oracle import compute_truth, oracle_operator
from repro.network.eventstore import EventStore
from repro.network.network import Network
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.sim import Simulator
from repro.workload.sensorscope import (
    ChurnConfig,
    DynamicReplayConfig,
    build_replay,
)
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)

# Round-robin over the distributed approaches so the 150-scenario sweep
# covers every protocol's event path, not just one.
_APPROACH_KEYS = ("fsf", "naive", "multijoin", "operator_placement")


def churn_arena(seed: int):
    """One seeded dynamic scenario: tiny deployment, 2 drifting days,
    40% of sensors cycling, a handful of subscriptions."""
    deployment = build_deployment(14, 2, seed=seed)
    replay = build_replay(
        deployment,
        DynamicReplayConfig(
            days=2,
            rounds_per_day=6,
            day_seconds=100.0,
            drift_per_day=2.0,
            jitter=1.5,
            seed=seed * 7 + 1,
        ),
        ChurnConfig(cycle_fraction=0.4, seed=seed * 13 + 2),
    )
    workload = generate_subscriptions(
        deployment,
        replay.medians,
        SubscriptionWorkloadConfig(
            n_subscriptions=5, attrs_min=2, attrs_max=4, seed=seed
        ),
        spreads=replay.spreads,
    )
    return deployment, replay, workload


def run_churn_network(deployment, replay, workload, approach_key):
    """One live run; returns the delivered keys per subscription."""
    sim = Simulator(seed=deployment.seed)
    network = Network(deployment, sim)
    all_approaches()[approach_key].populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    for placed in workload:
        network.register_subscription(placed.node_id, placed.subscription)
        network.run_to_quiescence()
    shifted = replay.shifted(REPLAY_START)
    node_of = {s.sensor_id: s.node_id for s in deployment.sensors}
    sim.schedule_timeline(
        (e.timestamp, lambda e=e: network.publish(node_of[e.sensor_id], e))
        for e in shifted
    )
    churn = replay.churn_shifted(REPLAY_START)
    if churn is not None:
        network.schedule_churn(churn)
    network.run_to_quiescence()
    return {
        sub_id: set(network.delivery.delivered(sub_id))
        for sub_id in network.delivery.subscriptions()
    }


# 150 seeds, chunked so a failure names a reproducible seed range (the
# convention of the matcher and oracle equivalence suites).
@pytest.mark.parametrize("chunk", range(15))
def test_engine_equals_reference_under_churn(chunk):
    """Node matcher equivalence under churn (fences, retraction floods,
    re-floods): the shadow checks every arrival's hit map against the
    reference window scan's."""
    instances = 0
    for seed in range(chunk * 10, chunk * 10 + 10):
        deployment, replay, workload = churn_arena(seed)
        assert replay.churn, seed  # churn actually on
        approach_key = _APPROACH_KEYS[seed % len(_APPROACH_KEYS)]
        delivered = run_churn_network(
            deployment, replay, workload, approach_key
        )
        instances += sum(len(keys) for keys in delivered.values())
    # An all-empty chunk would mean the scenarios stopped testing
    # anything — the generators are tuned so deliveries genuinely occur.
    assert instances > 0


@pytest.mark.parametrize("chunk", range(15))
def test_oracle_engine_equals_reference_under_churn(chunk):
    """Offline truth equivalence with the churn fence applied."""
    triggers = 0
    for seed in range(chunk * 10, chunk * 10 + 10):
        deployment, replay, workload = churn_arena(seed)
        subs = [p.subscription for p in workload]
        shifted = replay.shifted(REPLAY_START)
        churn = replay.churn_shifted(REPLAY_START)
        assert churn is not None, seed
        engine = compute_truth(
            subs, deployment, shifted, method="engine",
            fences=Fences.build(churn=churn),
        )
        reference = compute_truth(
            subs, deployment, shifted, method="reference",
            fences=Fences.build(churn=churn),
        )
        assert set(engine) == set(reference)
        for sub_id in engine:
            assert engine[sub_id].triggers == reference[sub_id].triggers, (
                seed,
                sub_id,
            )
            assert (
                engine[sub_id].participants == reference[sub_id].participants
            ), (seed, sub_id)
        triggers += sum(t.n_instances for t in engine.values())
    assert triggers > 0


# ---------------------------------------------------------------------------
# fence-semantics properties
# ---------------------------------------------------------------------------
_property_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(seed=st.integers(min_value=0, max_value=100_000))
@_property_settings
def test_departed_sensor_events_never_match_after_departure(seed):
    """Store-level fence property, both matchers at once.

    Replaying the campaign through one shared :class:`EventStore`
    (fences applied exactly at the scheduled departures, as the
    retraction flood does online), no ``matches_involving`` answer —
    incremental or reference — may contain a participant whose sensor
    departed at or before the query, with a timestamp from before that
    departure.
    """
    deployment, replay, workload = churn_arena(seed)
    operators = [
        oracle_operator(p.subscription, deployment) for p in workload
    ]
    store = EventStore(validity=1e9)
    engine = MatchingEngine(store)
    matchers = [engine.retain(op) for op in operators]
    departures = replay.churn.departures()
    next_dep = 0
    fenced: dict[str, float] = {}
    checked = 0
    for event in replay.events:
        while next_dep < len(departures) and (
            departures[next_dep][0] <= event.timestamp
        ):
            when, sensor_id = departures[next_dep]
            fenced[sensor_id] = when
            store.fence_sensor(sensor_id, when)
            next_dep += 1
        if not store.add(event, now=event.timestamp):
            continue
        for operator, matcher in zip(operators, matchers):
            participants = matcher.matches_involving(event)
            for members in participants.values():
                for member in members:
                    fence = fenced.get(member.sensor_id)
                    assert fence is None or member.timestamp > fence, (
                        seed,
                        member,
                        fence,
                    )
                    checked += 1
    # At least some scenarios must produce matches, or the property is
    # vacuous across the whole hypothesis run — assert per-arena events
    # flowed (matches may legitimately be absent for an individual seed).
    assert replay.events


@given(seed=st.integers(min_value=0, max_value=100_000))
@_property_settings
def test_churn_truth_is_subset_of_churn_blind_truth(seed):
    """Fencing only removes instances: over the *same* event set, every
    churn-aware trigger (and participant) is also credited by the
    churn-blind oracle."""
    deployment, replay, workload = churn_arena(seed)
    subs = [p.subscription for p in workload]
    shifted = replay.shifted(REPLAY_START)
    churn = replay.churn_shifted(REPLAY_START)
    with_fence = compute_truth(
        subs, deployment, shifted, method="engine",
        fences=Fences.build(churn=churn),
    )
    without_fence = compute_truth(subs, deployment, shifted, method="engine")
    for sub_id, truth in with_fence.items():
        assert truth.triggers <= without_fence[sub_id].triggers, sub_id
        assert truth.participants <= without_fence[sub_id].participants, sub_id


def test_fence_rejects_stragglers_and_unfence_readmits():
    """Unit pin of the store fence: pre-departure history is dropped and
    cannot re-enter; post-rejoin events flow again after unfencing."""
    from repro.model.events import SimpleEvent
    from repro.model.locations import Location

    store = EventStore(validity=1e9)
    loc = Location(0.0, 0.0)
    early = SimpleEvent("d", "t", loc, 1.0, 10.0, seq=0)
    assert store.add(early, now=10.0)
    removed = store.fence_sensor("d", now=20.0)
    assert removed == [early.key]
    assert store.events_for_sensor("d", float("-inf"), float("inf")) == ()
    # A forwarded copy of pre-departure history bounces off the fence.
    assert not store.add(early, now=21.0)
    straggler = SimpleEvent("d", "t", loc, 1.0, 19.0, seq=1)
    assert not store.add(straggler, now=21.0)
    # After the re-join advertisement lifts the fence, new readings flow.
    store.unfence_sensor("d")
    fresh = SimpleEvent("d", "t", loc, 1.0, 30.0, seq=2)
    assert store.add(fresh, now=30.0)
    assert list(store.events_for_sensor("d", 0.0, 100.0)) == [fresh]
