"""Machine-checked equivalence: incremental engine ≡ reference matcher.

The incremental engine (:mod:`repro.matching`) exists for speed; the
reference implementation (:mod:`repro.model.matching`) stays in-tree as
the semantics oracle.  These tests drive both against the *same*
:class:`EventStore` on randomized scenarios — identified and abstract
subscription shapes, finite and infinite ``delta_l``, duplicate
deliveries, out-of-order arrival, expiry/pruning — and require
identical participants (and identical ``instance_exists`` verdicts)
after every single ingest.  Correctness of the rewrite is therefore
checked by machine, not argued in prose.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matching import MatchingEngine
from repro.model import Interval, Location, SimpleEvent
from repro.model.matching import (
    instance_exists as reference_instance_exists,
    matches_involving as reference_matches_involving,
)
from repro.model.operators import CorrelationOperator, Slot
from repro.network.eventstore import EventStore

UNBOUNDED = float("inf")


# ---------------------------------------------------------------------------
# randomized scenario machinery
# ---------------------------------------------------------------------------
def random_operator(rng: np.random.Generator) -> CorrelationOperator:
    """A random 2-4 slot operator, identified- or abstract-shaped."""
    n_slots = int(rng.integers(2, 5))
    abstract = bool(rng.random() < 0.5)
    delta_t = float(rng.uniform(1.0, 6.0))
    delta_l = float(rng.uniform(1.0, 4.0)) if rng.random() < 0.5 else UNBOUNDED
    slots = []
    sensor_pool = iter(f"d{i}" for i in range(100))
    for s in range(n_slots):
        # Every interval straddles the [0, 2] band the value generator
        # centres on, so windows genuinely complete; edges still differ
        # per slot so acceptance is not uniform.
        lo = float(rng.uniform(-4, 0))
        interval = Interval(lo, lo + float(rng.uniform(3, 10)))
        if abstract:
            # one attribute per slot, several sensors can fill it
            n_sensors = int(rng.integers(1, 4))
            sensors = frozenset(next(sensor_pool) for _ in range(n_sensors))
            slots.append(Slot(f"attr{s}", f"attr{s}", interval, sensors))
        else:
            sensor = next(sensor_pool)
            slots.append(Slot(sensor, "t", interval, frozenset({sensor})))
    return CorrelationOperator("q", "user", slots, delta_t, delta_l)


def random_events(
    rng: np.random.Generator, operator: CorrelationOperator, n: int
) -> list[SimpleEvent]:
    """Near-ordered events over the operator's sensors (+ one stranger).

    ~12% duplicates, ~15% out-of-order (late) deliveries, timestamps on
    a coarse 0.5 grid so equal-timestamp ties and exact window edges
    are exercised constantly.
    """
    attr_of: dict[str, str] = {}
    for slot in operator.slots:
        for sensor in slot.sensors:
            attr_of[sensor] = slot.attribute
    attr_of["stranger"] = "t"
    sensors = sorted(attr_of)
    spread = operator.delta_l if math.isfinite(operator.delta_l) else 3.0
    events: list[SimpleEvent] = []
    t = 0.0
    for i in range(n):
        if events and rng.random() < 0.12:
            events.append(events[int(rng.integers(0, len(events)))])  # duplicate
            continue
        t += float(rng.integers(0, 3)) * 0.5
        ts = t
        if rng.random() < 0.15:  # late (out-of-order) arrival
            ts = max(0.0, t - float(rng.integers(1, 6)) * 0.5)
        sensor = sensors[int(rng.integers(0, len(sensors)))]
        # Mostly in-band values (windows complete often); a tail of
        # misses keeps slot acceptance from being a tautology.
        value = (
            float(rng.uniform(0, 2))
            if rng.random() < 0.75
            else float(rng.uniform(-12, 20))
        )
        events.append(
            SimpleEvent(
                sensor,
                attr_of[sensor],
                Location(
                    float(rng.uniform(0, 1.6 * spread)),
                    float(rng.uniform(0, 1.6 * spread)),
                ),
                value,
                ts,
                i,
            )
        )
    return events


def assert_equivalent(matcher, operator, store, event):
    got = matcher.matches_involving(event)
    want = reference_matches_involving(operator, store, event)
    assert got == want, (
        f"matches_involving diverged for {event}:\n  engine   ={got}\n"
        f"  reference={want}"
    )
    got_exists = matcher.instance_exists(event)
    want_exists = reference_instance_exists(operator, store, event)
    assert got_exists == want_exists, f"instance_exists diverged for {event}"


def run_scenario(seed: int) -> int:
    """One randomized end-to-end scenario; returns #comparisons made."""
    rng = np.random.default_rng(seed)
    operator = random_operator(rng)
    validity = float(rng.uniform(8.0, 25.0))
    store = EventStore(validity)
    engine = MatchingEngine(store)
    events = random_events(rng, operator, n=int(rng.integers(20, 45)))
    # Half the scenarios register late, exercising the backfill path.
    register_at = 0 if rng.random() < 0.5 else len(events) // 2
    matcher = engine.retain(operator) if register_at == 0 else None
    compared = 0
    now = 0.0
    for i, event in enumerate(events):
        now = max(now, event.timestamp + float(rng.integers(0, 3)) * 0.25)
        store.add(event, now)
        if i == register_at and register_at:
            matcher = engine.retain(operator)
        if i >= register_at:
            assert_equivalent(matcher, operator, store, event)
            compared += 1
            if rng.random() < 0.2:  # re-query an arbitrary earlier event
                earlier = events[int(rng.integers(0, i + 1))]
                assert_equivalent(matcher, operator, store, earlier)
                compared += 1
        if rng.random() < 0.1:
            store.prune(now)
    # Post-run: full prune, then every stored event must still agree.
    store.prune(now)
    for event in list(store.all_events()):
        assert_equivalent(matcher, operator, store, event)
        compared += 1
    return compared


# 220 seeds ≥ the 200-scenario acceptance floor, split into chunks so
# failures name a reproducible seed range and runtime stays visible.
@pytest.mark.parametrize("chunk", range(22))
def test_engine_equals_reference_randomized(chunk):
    compared = 0
    for seed in range(chunk * 10, chunk * 10 + 10):
        compared += run_scenario(seed)
    assert compared > 0


# ---------------------------------------------------------------------------
# hypothesis: adversarial small cases (shrinking finds minimal diffs)
# ---------------------------------------------------------------------------
SUB_OP = CorrelationOperator(
    "h",
    "user",
    [
        Slot("a", "t", Interval(0, 10), frozenset({"a"})),
        Slot("b", "t", Interval(0, 10), frozenset({"b", "b2"})),
    ],
    delta_t=3.0,
)
SPATIAL_OP = CorrelationOperator(
    "hs",
    "user",
    [
        Slot("a", "t", Interval(0, 10), frozenset({"a"})),
        Slot("b", "t", Interval(0, 10), frozenset({"b", "b2"})),
    ],
    delta_t=3.0,
    delta_l=2.0,
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "b2"]),
            st.integers(0, 24),  # timestamp halves — ties guaranteed
            st.integers(-2, 12),  # value, sometimes outside the filter
            st.integers(0, 6),  # x-cell — distances straddle delta_l
        ),
        min_size=1,
        max_size=16,
    ),
    st.booleans(),
)
def test_engine_equals_reference_adversarial(raw, spatial):
    operator = SPATIAL_OP if spatial else SUB_OP
    store = EventStore(validity=100.0)
    matcher = MatchingEngine(store).retain(operator)
    now = 0.0
    events = []
    for i, (sensor, ts_half, value, xcell) in enumerate(raw):
        event = SimpleEvent(
            sensor, "t", Location(xcell * 0.9, 0.0), float(value), ts_half * 0.5, i
        )
        events.append(event)
        now = max(now, event.timestamp)
        store.add(event, now)
        assert_equivalent(matcher, operator, store, event)
    for event in events:
        assert_equivalent(matcher, operator, store, event)
