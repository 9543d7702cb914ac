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

``compute_truth`` answers each distinct ``(match structure, lifetime)``
once; clone families — equal but for the id, the lifetime, Δt, Δl or a
region resolving to the same sensors — must get what one
``operator_truth`` per subscription gives, in frozensets that the
clones of one key share.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.matching.engine import match_structure
from repro.metrics.fences import Fences
from repro.metrics.oracle import (
    ORACLE_METHODS,
    EventIndex,
    compute_truth,
    operator_truth,
    oracle_operator,
)
from repro.model.filters import AbstractFilter, IdentifiedFilter, SimpleFilter
from repro.model.locations import CircleRegion, EverywhereRegion, Location
from repro.model.subscriptions import AbstractSubscription, IdentifiedSubscription
from repro.experiments.runner import REPLAY_START
from repro.network.faults import OutageWindow
from repro.network.topology import build_deployment
from repro.workload.sensorscope import ChurnSchedule, ReplayConfig, build_replay
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)

from deployments import advertised
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


# ---------------------------------------------------------------------------
# clones share one truth pass
# ---------------------------------------------------------------------------
def truth_loop(subscriptions, deployment, events, method, fences):
    """One ``operator_truth`` per subscription: what ``compute_truth``
    computed before clones shared a pass, kept as its oracle."""
    index = EventIndex(fences.published(events))
    return {
        s.sub_id: operator_truth(
            oracle_operator(s, deployment), s.sub_id, index, method, fences
        )
        for s in subscriptions
    }


def assert_equal_frozen_shared(got, want, fences) -> None:
    """``got`` equals the per-subscription loop ``want``; no truth can
    alter another's, because every answer is a frozenset; and the
    clones of one ``(match structure, lifetime)`` key hold one answer:
    the same two frozensets and the same ``slots`` tuple."""
    assert list(got) == list(want)
    first = {}
    for sub_id, truth in want.items():
        mine = got[sub_id]
        assert mine.sub_id == sub_id
        assert mine.operator == truth.operator, sub_id
        assert mine.triggers == truth.triggers, sub_id
        assert mine.participants == truth.participants, sub_id
        assert type(mine.triggers) is frozenset, sub_id
        assert type(mine.participants) is frozenset, sub_id
        key = (match_structure(mine.operator), fences.lifetime(sub_id))
        owner = first.setdefault(key, mine)
        assert mine.triggers is owner.triggers, sub_id
        assert mine.participants is owner.participants, sub_id
        assert mine.operator.slots is owner.operator.slots, sub_id
    assert len(first) < len(got), "no two subscriptions asked one question"


def as_subscription(operator, sub_id, delta_t=None, delta_l=None, region=None):
    """``operator``'s question as a subscription the oracle resolves
    back to it (abstract shapes resolve through :func:`slot_deployment`)."""
    delta_t = operator.delta_t if delta_t is None else delta_t
    if operator.slots[0].slot_id != operator.slots[0].attribute:
        return IdentifiedSubscription(
            sub_id,
            (
                IdentifiedFilter(s.slot_id, SimpleFilter(s.attribute, s.interval))
                for s in operator.slots
            ),
            delta_t,
        )
    return AbstractSubscription(
        sub_id,
        (
            AbstractFilter(SimpleFilter(s.attribute, s.interval), region or EVERYWHERE)
            for s in operator.slots
        ),
        delta_t,
        operator.delta_l if delta_l is None else delta_l,
    )


EVERYWHERE = EverywhereRegion()
ORIGIN = Location(0.0, 0.0)


def slot_deployment(operator):
    """Every slot sensor advertised at the origin, so any region holding
    the origin resolves an abstract clause to exactly its slot."""
    return SimpleNamespace(
        advertisements=advertised(
            {s: slot.attribute for slot in operator.slots for s in slot.sensors},
            ORIGIN,
        )
    )


@st.composite
def clone_arena(draw):
    """A fenced arena's operator asked by a family of clones: equal but
    for the id, for the lifetime, for Δt, for Δl, or for a region that
    resolves to the same sensors."""
    operator, events, fences = draw(fenced_arena())
    span = max(e.timestamp for e in events) + 1.0
    times = st.integers(0, int(span * 4)).map(lambda k: k / 4)
    early, late = (tuple(sorted(draw(st.tuples(times, times)))) for _ in range(2))
    dt = operator.delta_t
    clones = [
        (as_subscription(operator, "a0"), early),
        (as_subscription(operator, "b0"), late),
        (as_subscription(operator, "a1"), early),
        (as_subscription(operator, "f0"), None),
        (as_subscription(operator, "t0", delta_t=dt + 1.0), early),
        (as_subscription(operator, "a2"), early),
        (as_subscription(operator, "t1", delta_t=dt / 2), early),
        (as_subscription(operator, "t2", delta_t=dt + 1.0), early),
        (as_subscription(operator, "f1"), None),
        (as_subscription(operator, "b1"), late),
    ]
    if operator.slots[0].slot_id == operator.slots[0].attribute:
        near = 2.0 if math.isinf(operator.delta_l) else operator.delta_l / 2
        disc = CircleRegion(ORIGIN, 1.0)
        clones += [
            (as_subscription(operator, "l0", delta_l=near), early),
            (as_subscription(operator, "r0", region=disc), early),
            (as_subscription(operator, "l1", delta_l=near), early),
            (as_subscription(operator, "r1", region=disc), late),
        ]
    lifetimes = {sub.sub_id: life for sub, life in clones if life is not None}
    fences = replace(fences, lifetimes=lifetimes)
    return [sub for sub, _ in clones], slot_deployment(operator), events, fences


@pytest.mark.parametrize("method", ORACLE_METHODS)
@given(arena=clone_arena())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_clones_share_a_pass_and_equal_the_loop(method, arena):
    """``compute_truth`` equals one ``operator_truth`` per subscription
    under generated churn / outage fences, and the clones of one key
    share one frozen answer."""
    subs, deployment, events, fences = arena
    got = compute_truth(subs, deployment, events, method, fences)
    assert_equal_frozen_shared(
        got, truth_loop(subs, deployment, events, method, fences), fences
    )


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

    @pytest.mark.parametrize("method", ORACLE_METHODS)
    def test_clones_equal_the_loop(self, arena, method):
        """Six generated questions, each asked four times: by a clone,
        by one with a doubled Δt and by one living through the middle
        third of the replay."""
        deployment, subs, events = arena
        stamps = sorted(e.timestamp for e in events)
        middle = (stamps[len(stamps) // 3], stamps[2 * len(stamps) // 3])
        family = []
        for s in subs[:6]:
            family += [
                s,
                replace(s, sub_id=f"{s.sub_id}c"),
                replace(s, sub_id=f"{s.sub_id}w", delta_t=2 * s.delta_t),
                replace(s, sub_id=f"{s.sub_id}m"),
            ]
        fences = Fences(lifetimes={f"{s.sub_id}m": middle for s in subs[:6]})
        got = compute_truth(family, deployment, events, method, fences)
        assert_equal_frozen_shared(
            got, truth_loop(family, deployment, events, method, fences), fences
        )
        for suffix in "wm":
            assert any(
                got[s.sub_id + suffix].triggers != got[s.sub_id].triggers
                for s in subs[:6]
            )

    def test_unknown_method_rejected(self, arena):
        deployment, subs, events = arena
        for method in ("psychic", "columnar"):
            with pytest.raises(ValueError, match=r"\('engine', 'reference'\)"):
                compute_truth(subs[:1], deployment, events, method=method)
