"""Machine-checked equivalence: engine-backed oracle ≡ reference scan.

The offline oracle now answers ground truth through the incremental
matching engine's per-slot timelines (``method="engine"``); the
original per-trigger window rescan stays selectable as
``method="reference"``.  These tests drive both passes over the same
randomized scenarios the engine-vs-reference matcher suite uses
(:mod:`test_matching_engine` — identified and abstract shapes, finite
and infinite ``delta_l``, duplicates, out-of-order timestamps, constant
ties) plus real deployment workloads, and require identical
``triggers`` and ``participants`` sets for every subscription.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.metrics.fences import Fences
from repro.metrics.oracle import EventIndex, compute_truth, operator_truth
from repro.experiments.runner import REPLAY_START
from repro.network.faults import OutageWindow
from repro.network.topology import build_deployment
from repro.workload.sensorscope import ChurnSchedule, ReplayConfig, build_replay
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)

from test_matching_engine import random_events, random_operator


def assert_same_truth(operator, events) -> int:
    """Both passes agree on one operator + event set; returns
    #triggers."""
    index = EventIndex(events)
    engine = operator_truth(operator, "q", index, method="engine")
    reference = operator_truth(operator, "q", index, method="reference")
    assert engine.triggers == reference.triggers
    assert engine.participants == reference.participants
    return len(reference.triggers)


# 220 seeds ≥ the property-suite scenario floor, chunked so failures
# name a reproducible seed range (same convention as the matcher suite).
@pytest.mark.parametrize("chunk", range(22))
def test_oracle_engine_equals_reference_randomized(chunk):
    triggers = 0
    for seed in range(chunk * 10, chunk * 10 + 10):
        rng = np.random.default_rng(seed)
        operator = random_operator(rng)
        events = random_events(rng, operator, n=int(rng.integers(20, 45)))
        triggers += assert_same_truth(operator, events)
    # The generators are tuned so windows genuinely complete; an
    # all-empty chunk would mean the scenarios stopped testing anything.
    assert triggers > 0


HOSTS = ("h0", "h1", "h2")


@st.composite
def fenced_arena(draw):
    """A random operator and event set plus a generated (churn, outage,
    lifetime) triple on the same quarter-step clock, so fence edges tie
    with timestamps."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    operator = random_operator(rng)
    events = random_events(rng, operator, n=int(rng.integers(20, 45)))
    span = max(e.timestamp for e in events) + 1.0
    times = st.integers(0, int(span * 4)).map(lambda k: k / 4)
    sensors = sorted({e.sensor_id for e in events})
    host = {sensor: HOSTS[i % len(HOSTS)] for i, sensor in enumerate(sensors)}
    intervals = {}
    for sensor in sensors:
        # Alternating leave / join edges; an odd count never re-joins.
        edges = sorted(draw(st.sets(times, max_size=4)))
        if edges:
            spans, start = [], -math.inf
            for i, edge in enumerate(edges):
                if i % 2 == 0:
                    spans.append((start, edge))
                else:
                    start = edge
            if len(edges) % 2 == 0:
                spans.append((start, math.inf))
            intervals[sensor] = tuple(spans)
    outages = []
    for _ in range(draw(st.integers(0, 2))):
        start, end = sorted(draw(st.sets(times, min_size=2, max_size=2)))
        domain = draw(st.sets(st.sampled_from(HOSTS), min_size=1))
        outages.append(OutageWindow(tuple(sorted(domain)), start, end))
    born, dies = draw(st.none() | times), draw(st.none() | times)
    if born is not None and dies is not None and dies < born:
        born, dies = dies, born
    fences = Fences.build(
        SimpleNamespace(
            sensors=[SimpleNamespace(sensor_id=s, node_id=host[s]) for s in sensors]
        ),
        churn=ChurnSchedule(intervals),
        outages=outages,
        activations={} if born is None else {"q": born},
        cancellations={} if dies is None else {"q": dies},
    )
    return operator, events, fences


@given(arena=fenced_arena())
@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_fenced_engine_equals_reference_and_only_removes_truth(arena):
    """Engine ≡ reference under any (churn, outage, lifetime) triple,
    and every fence only removes triggers and participants."""
    operator, events, fences = arena
    index = EventIndex(fences.published(events))
    engine = operator_truth(operator, "q", index, "engine", fences)
    reference = operator_truth(operator, "q", index, "reference", fences)
    assert engine.triggers == reference.triggers
    assert engine.participants == reference.participants
    blind = operator_truth(operator, "q", EventIndex(events))
    assert engine.triggers <= blind.triggers
    assert engine.participants <= blind.participants


class TestComputeTruthEndToEnd:
    """Full ``compute_truth`` equality on a real deployment workload —
    abstract operator resolution, grouped sensors, replayed events."""

    @pytest.fixture(scope="class")
    def arena(self):
        deployment = build_deployment(36, 4, seed=5)
        replay = build_replay(deployment, ReplayConfig(rounds=8, seed=5))
        workload = generate_subscriptions(
            deployment,
            replay.medians,
            SubscriptionWorkloadConfig(
                n_subscriptions=24, attrs_min=3, attrs_max=5, seed=5
            ),
            spreads=replay.spreads,
        )
        subs = [p.subscription for p in workload]
        return deployment, subs, replay.shifted(REPLAY_START)

    @pytest.mark.parametrize("method", ["engine"])
    def test_engine_matches_reference(self, arena, method):
        deployment, subs, events = arena
        engine = compute_truth(subs, deployment, events, method=method)
        reference = compute_truth(subs, deployment, events, method="reference")
        assert set(engine) == set(reference)
        assert sum(t.n_instances for t in reference.values()) > 0
        for sub_id, truth in reference.items():
            assert engine[sub_id].triggers == truth.triggers, sub_id
            assert engine[sub_id].participants == truth.participants, sub_id

    def test_unknown_method_rejected(self, arena):
        deployment, subs, events = arena
        for method in ("psychic", "columnar"):
            with pytest.raises(ValueError, match=r"\('engine', 'reference'\)"):
                compute_truth(subs[:1], deployment, events, method=method)
