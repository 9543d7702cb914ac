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

The same scenarios fence arrival-driven matching: after every stored
arrival the engine's hit map must hold exactly the retained operators
the reference finds a match for, with the reference's participants in
the reference's order — so the ingest-time pre-check may never skip a
matcher that has a match, and the slot index the stabbing index hands
the sweep must be the reference's own slot.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matching import MatchingEngine
from repro.matching.engine import _StabbingIndex
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


def assert_hit_map(engine, store, operators, event):
    """The map of the arrival just stored ≡ one reference scan per
    retained operator, keeping the non-empty answers."""
    want = {}
    for operator in operators:
        found = reference_matches_involving(operator, store, event)
        if found:
            want[engine.matcher(operator)] = found
    got = engine.hits(event)
    assert dict(got) == want, (
        f"hit map diverged for {event}:\n  engine   ={dict(got)}\n"
        f"  reference={want}"
    )


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
        if store.add(event, now) and matcher is not None:
            assert_hit_map(engine, store, [operator], event)
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
    for event in [e for e in events if e.key in store]:
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
    engine = MatchingEngine(store)
    matcher = engine.retain(operator)
    now = 0.0
    events = []
    for i, (sensor, ts_half, value, xcell) in enumerate(raw):
        event = SimpleEvent(
            sensor, "t", Location(xcell * 0.9, 0.0), float(value), ts_half * 0.5, i
        )
        events.append(event)
        now = max(now, event.timestamp)
        store.add(event, now)
        assert_hit_map(engine, store, [operator], event)
        assert_equivalent(matcher, operator, store, event)
    for event in events:
        assert_equivalent(matcher, operator, store, event)


# ---------------------------------------------------------------------------
# the two cases the ingest-time pre-check can get wrong
# ---------------------------------------------------------------------------
def reading(sensor: str, ts: float, seq: int, value: float = 5.0) -> SimpleEvent:
    return SimpleEvent(sensor, "t", Location(0.0, 0.0), value, ts, seq)


def test_hit_map_sees_the_newest_entry_of_an_unsorted_timeline():
    """A late arrival leaves slot ``b``'s timeline unsorted with its
    newest entry first; the freshness test must not read the last one."""
    store = EventStore(validity=100.0)
    engine = MatchingEngine(store)
    matcher = engine.retain(SUB_OP)
    store.add(reading("b", 10.0, 0), now=10.0)
    store.add(reading("b", 5.0, 1), now=10.0)  # late: appended behind 10.0
    b_timeline = matcher._timelines[1]
    assert [entry[0] for entry in b_timeline._entries] == [10.0, 5.0]
    # Matches b@10 at trigger 10 (window (7, 10]); b@5 is out of reach
    # (5 <= 9 − Δt), so judging by the last entry would skip the sweep.
    event = reading("a", 9.0, 0)
    store.add(event, now=10.0)
    assert_hit_map(engine, store, [SUB_OP], event)
    assert {slot: [e.key for e in found] for slot, found in engine.hits(event)[matcher].items()} == {
        "a": [("a", 0)],
        "b": [("b", 0)],
    }


TWO_SLOTS_ONE_SENSOR = CorrelationOperator(
    "twice",
    "user",
    [
        Slot("x", "t", Interval(0, 10), frozenset({"s"})),
        Slot("y", "t", Interval(5, 15), frozenset({"s", "other"})),
    ],
    delta_t=3.0,
)


@pytest.mark.parametrize("spatial", [False, True])
def test_hit_map_sweeps_a_doubly_accepting_arrival_once_as_its_first_slot(spatial):
    """Values in [5, 10] fill both slots: one sweep, after both
    timelines hold the entry, as a member of slot ``x`` like the
    reference's ``slot_for_event``."""
    operator = TWO_SLOTS_ONE_SENSOR
    if spatial:
        operator = CorrelationOperator(
            "twice", "user", operator.slots, operator.delta_t, delta_l=2.0
        )
    store = EventStore(validity=100.0)
    engine = MatchingEngine(store)
    matcher = engine.retain(operator)
    both = reading("s", 1.0, 0, value=7.0)
    # The index lists a matcher's accepting slots adjacently and in
    # slot order, so the first is the reference's own slot.
    accepting = engine._ingest_index["s"].targets("t", both.value)
    assert [(m, own) for _timeline, m, own in accepting] == [(matcher, 0), (matcher, 1)]
    assert operator.slots[0] is operator.slot_for_event(both)
    store.add(both, now=1.0)
    assert_hit_map(engine, store, [operator], both)
    assert list(engine.hits(both)) == [matcher]  # on its own it fills x and y
    feed = [("s", 3.0), ("other", 12.0), ("s", 8.0), ("s", 12.0), ("other", 6.0), ("s", 5.0)]
    for i, (sensor, value) in enumerate(feed, start=1):
        event = reading(sensor, 1.0 + 0.5 * i, i, value=value)
        store.add(event, now=event.timestamp)
        assert_hit_map(engine, store, [operator], event)
        assert_equivalent(matcher, operator, store, event)


# ---------------------------------------------------------------------------
# the stabbing index, edited in place
# ---------------------------------------------------------------------------
def fresh_build(registrations):
    """Per-attribute ``(bounds, segments)`` of an index built from scratch
    over ``registrations`` (``(attribute, lo, hi, payload)`` in
    registration order): the batch build the engine once re-ran after
    every admission and retirement, kept here as the oracle of the
    in-place edits."""
    groups = {}
    for attribute, lo, hi, payload in registrations:
        if lo <= hi:  # empty filters accept nothing
            groups.setdefault(attribute, []).append((lo, hi, payload))
    built = {}
    for attribute, regs in groups.items():
        bounds = sorted({x for lo, hi, _payload in regs for x in (lo, hi)})
        # segment 2j+1 = the point [bounds[j]];
        # segment 2j   = the open range (bounds[j-1], bounds[j])
        segments = [[] for _ in range(2 * len(bounds) + 1)]
        for lo, hi, payload in regs:
            first = bisect_left(bounds, lo)
            last = bisect_left(bounds, hi)
            for j in range(first, last + 1):
                segments[2 * j + 1].append(payload)
            for j in range(first + 1, last + 1):
                segments[2 * j].append(payload)
        built[attribute] = (bounds, [tuple(s) for s in segments])
    return built


def registered(index):
    """The index's live registrations, in registration order."""
    return [reg for regs in index._registrations.values() for reg in regs]


def assert_equals_fresh_build(index, registrations):
    """``index`` holds ``registrations`` and, once built, exactly what a
    fresh build of them holds: no cut that no live filter makes, and
    every endpoint counted once per live filter ending there."""
    assert bool(index) == bool(registrations)
    if index._by_attr is None:
        return  # not built yet: nothing arrived since registrations began
    got = {
        attribute: (bounds, segments)
        for attribute, (bounds, segments, _uses) in index._by_attr.items()
    }
    assert got == fresh_build(registrations)
    for attribute, (bounds, _segments, uses) in index._by_attr.items():
        ends = Counter(
            x
            for a, lo, hi, _payload in registrations
            if a == attribute and lo <= hi
            for x in {lo, hi}
        )
        assert len(bounds) == len(ends)
        assert dict(zip(bounds, uses)) == ends


def index_probes(bounds):
    """One value per elementary segment: every endpoint, every gap."""
    points = sorted(bounds)
    gaps = [(a + b) / 2 for a, b in zip(points, points[1:])]
    return [points[0] - 1.0, *points, *gaps, points[-1] + 1.0]


@pytest.mark.parametrize("seed", range(25))
def test_stabbing_index_extended_in_place_equals_a_rebuild(seed):
    """Registrations extend the built index in place, whether or not
    their endpoints already cut the axis; whatever the sequence, it
    routes like an index built from scratch over the same registrations
    — per segment and in order, which is what decides the own slot."""
    rng = np.random.default_rng(seed)
    grid = [float(x) for x in range(6)]
    index = _StabbingIndex()
    registrations = []
    in_place = 0
    for step in range(30):
        if registrations and rng.random() < 0.15:
            victim = registrations[int(rng.integers(0, len(registrations)))][3]
            registrations = [reg for reg in registrations if reg[3] is not victim]
            index.discard(victim)
        else:
            lo, hi = sorted(rng.choice(grid, size=2))
            if rng.random() < 0.1:
                lo, hi = hi + 1.0, lo  # an empty filter: kept, never hit
            attribute = "t" if rng.random() < 0.8 else "u"
            matcher = object()
            # Two slots of one matcher, as MatchingEngine.matcher adds them.
            for own in range(1 + int(rng.random() < 0.3)):
                registration = (attribute, Interval(lo, hi), object(), matcher, own)
                built = index._by_attr
                index.add(*registration)
                registrations.append(registration)
                if built is not None:
                    assert index._by_attr is built, "a registration rebuilt"
                    in_place += 1
        rebuilt = _StabbingIndex()
        for registration in registrations:
            rebuilt.add(*registration)
        for attribute in ("t", "u"):
            for value in index_probes(grid):
                assert index.targets(attribute, value) == rebuilt.targets(
                    attribute, value
                ), (seed, step, attribute, value)
    assert in_place


@pytest.mark.parametrize("seed", range(25))
def test_stabbing_index_edited_in_place_equals_a_fresh_build(seed):
    """Built once, at the first arrival, and only edited after it:
    whatever the add/discard sequence, the index equals a fresh build
    of its live registrations — per segment and in order, which is what
    decides the own slot — and routes every value to exactly the
    filters accepting it."""
    rng = np.random.default_rng(seed)
    grid = [float(x) for x in range(6)]
    index = _StabbingIndex()
    registrations = []
    first_arrival = int(rng.integers(0, 8))
    edited = 0
    for step in range(40):
        if step == first_arrival:
            index.targets("t", grid[0])
        if registrations and rng.random() < 0.3:
            victim = registrations[int(rng.integers(0, len(registrations)))][3][1]
            registrations = [reg for reg in registrations if reg[3][1] is not victim]
            index.discard(victim)
        else:
            matcher = object()
            # One or two slots, registered back to back like
            # MatchingEngine.matcher does, each with its own filter.
            for own in range(1 + int(rng.random() < 0.3)):
                lo, hi = sorted(rng.choice(grid, size=2))  # lo == hi: a point
                if rng.random() < 0.1:
                    lo, hi = hi + 1.0, lo  # an empty filter: kept, never hit
                attribute = "t" if rng.random() < 0.7 else "u"
                payload = (object(), matcher, own)
                index.add(attribute, Interval(lo, hi), *payload)
                registrations.append((attribute, lo, hi, payload))
        assert registered(index) == registrations
        assert_equals_fresh_build(index, registrations)
        if index._by_attr is None:
            continue
        edited += 1
        for attribute in ("t", "u"):
            for value in index_probes(grid):
                want = tuple(
                    payload
                    for a, lo, hi, payload in registrations
                    if a == attribute and lo <= value <= hi
                )
                assert index.targets(attribute, value) == want, (seed, step, value)
    assert edited


def test_stabbing_index_discard_of_an_unregistered_matcher_raises():
    """Like an unpaired ``MatchingEngine.release``: a bookkeeping bug
    raises, built or not, and changes nothing."""
    index = _StabbingIndex()
    matcher = object()
    index.add("t", Interval(0.0, 2.0), object(), matcher, 0)
    with pytest.raises(KeyError):
        index.discard(object())
    index.targets("t", 1.0)  # the first arrival builds it
    with pytest.raises(KeyError):
        index.discard(object())
    assert_equals_fresh_build(index, registered(index))
    assert len(registered(index)) == 1
    index.discard(matcher)
    assert not index and index._by_attr == {}
    with pytest.raises(KeyError):
        index.discard(matcher)  # a second discard is unpaired too
