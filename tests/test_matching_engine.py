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
matcher that has a match, and the slot index the sensor's registration
list hands the sweep must be the reference's own slot.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matching import MatchingEngine
from repro.matching.engine import _accepting, _discard
from repro.matching.reference import ReferenceEngine
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
    # The list holds a matcher's accepting slots adjacently and in
    # slot order, so the first is the reference's own slot.
    accepting = _accepting(engine._ingest_index["s"], "t", both.value)
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
# the sweep's two branches: a slot holding nothing after t0 (no search)
# and the three-bisect one, fenced against the reference engine
# ---------------------------------------------------------------------------
BRANCH_FEED = [
    # (sensor, timestamp, seq, now)
    ("b", 2.5, 0, 2.5),
    ("b2", 6.0, 5, 6.0),
    ("a", 6.0, 0, 6.0),  # slot b's newest entry is exactly at t0
    ("b", 6.0, 1, 6.0),  # ties b2@6 with a smaller (seq, sensor): not last
    ("b", 31.0, 10, 31.0),
    ("a", 34.0, 10, 34.0),
    ("a", 33.5, 11, 34.0),  # out of order after an in-order run
    ("b", 40.0, 20, 50.0),  # at the horizon: stored, never visible
    ("a", 40.5, 20, 50.0),  # its window is clamped to the horizon
    ("b", 41.0, 21, 50.0),
]


def test_both_sweep_branches_equal_the_reference_engine():
    """Every arrival of a hand-made feed, on both matcher kinds, against
    :class:`ReferenceEngine` over the same store: the hit maps operator
    by operator, then a fresh sweep of every event of the feed.

    The feed drives the cases the in-order branch can get wrong: an
    entry at exactly ``t0`` in another slot, an arrival that is not its
    timeline's last entry because it ties one with a larger ``(seq,
    sensor)``, a late arrival after an in-order run (its own slot holds
    a later entry; the correct answer is the match at ``t0``, the later
    trigger's window is incomplete) and arrivals at and just above the
    store horizon.
    """
    operators = [SUB_OP, SPATIAL_OP]
    store = EventStore(validity=10.0)
    engine = MatchingEngine(store)
    reference = ReferenceEngine(store)
    pairs = [(engine.retain(op), reference.retain(op)) for op in operators]
    events, found = [], []
    for sensor, timestamp, seq, now in BRANCH_FEED:
        event = reading(sensor, timestamp, seq)
        events.append(event)
        assert store.add(event, now)
        got, want = engine.hits(event), reference.hits(event)
        for matcher, ref_matcher in pairs:
            assert got.get(matcher) == want.get(ref_matcher), event
        found.append(got.get(pairs[0][0], {}))
    assert [len(f) for f in found] == [0, 0, 2, 2, 0, 0, 2, 0, 0, 2]
    assert found[6] == {"a": [events[6]], "b": [events[4]]}  # the late one
    assert events[7].timestamp == store.horizon
    for event in events:
        for matcher, ref_matcher in pairs:
            want = ref_matcher.matches_involving(event)
            assert matcher.matches_involving(event) == want, event


# ---------------------------------------------------------------------------
# the ingest index: one registration list per sensor, edited in place
# ---------------------------------------------------------------------------
GRID = [float(x) for x in range(6)]


def random_filter_operator(rng, name: str, delta_t: float) -> CorrelationOperator:
    """One or two slots drawing from sensor ``s`` (slot ``y`` now and
    then from ``o`` too), each with its own filter on attribute ``t`` or
    ``u``: a range on the grid, a point (``lo == hi``) or an empty
    filter."""
    slots = []
    for slot_id in ("x", "y")[: 1 + int(rng.random() < 0.3)]:
        lo, hi = sorted(float(v) for v in rng.choice(GRID, size=2))
        if rng.random() < 0.1:
            lo, hi = hi + 1.0, lo  # an empty filter: registered, never hit
        attribute = "t" if rng.random() < 0.7 else "u"
        sensors = {"s", "o"} if slot_id == "y" and rng.random() < 0.5 else {"s"}
        slots.append(Slot(slot_id, attribute, Interval(lo, hi), frozenset(sensors)))
    return CorrelationOperator(name, "user", slots, delta_t)


def live_registrations(matchers, sensor_id):
    """What ``sensor_id``'s list must hold: one ``(attribute, lo, hi,
    (timeline, matcher, slot index))`` per live slot drawing from the
    sensor, matchers in registration order and slots in slot order."""
    return [
        (slot.attribute, slot.interval.lo, slot.interval.hi, (timeline, matcher, own))
        for matcher in matchers
        for own, (slot, timeline) in enumerate(
            zip(matcher.structure[0], matcher._timelines)
        )
        if sensor_id in slot.sensors
    ]


def index_probes(grid):
    """Every endpoint, every gap between two, and one value either side."""
    gaps = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    return [grid[0] - 1.0, *grid, *gaps, grid[-1] + 1.0]


def admit_or_retire(rng, engine, live, step, retire_share):
    """One random step: retire a live operator, or admit a new one (its
    own ``delta_t``, so it gets its own matcher)."""
    if live and rng.random() < retire_share:
        victim = list(live)[int(rng.integers(0, len(live)))]
        del live[victim]
        engine.release(victim)
    else:
        operator = random_filter_operator(rng, f"q{step}", 1.0 + step)
        live[operator] = engine.retain(operator)


@pytest.mark.parametrize("seed", range(25))
def test_stabbing_index_extended_in_place_equals_a_rebuild(seed):
    """Admissions append to a sensor's list and retirements filter it;
    whatever the sequence, the list routes like one an engine builds
    from scratch over the same live operators — per value and in
    order, which is what decides the own slot."""
    rng = np.random.default_rng(seed)
    engine = MatchingEngine(EventStore(validity=100.0))
    live = {}
    retired = 0
    for step in range(30):
        before = len(live)
        admit_or_retire(rng, engine, live, step, 0.15)
        retired += len(live) < before
        rebuilt = MatchingEngine(EventStore(validity=100.0))
        for operator in live:
            rebuilt.retain(operator)
        assert list(engine._ingest_index) == list(rebuilt._ingest_index)
        for sensor_id in engine._ingest_index:
            for attribute in ("t", "u"):
                for value in index_probes(GRID):
                    got, want = (
                        [
                            (matcher.structure, own)
                            for _timeline, matcher, own in _accepting(
                                side._ingest_index[sensor_id], attribute, value
                            )
                        ]
                        for side in (engine, rebuilt)
                    )
                    assert got == want, (seed, step, sensor_id, attribute, value)
    assert retired


@pytest.mark.parametrize("seed", range(25))
def test_stabbing_index_edited_in_place_equals_a_fresh_build(seed):
    """Whatever the admit/retire sequence, each sensor's list is exactly
    its live registrations in registration order (a list exists only
    while one does), and routes every value to exactly the slots that
    accept it — brute force over the live operators — with each
    matcher's first entry the reference's own slot."""
    rng = np.random.default_rng(seed)
    engine = MatchingEngine(EventStore(validity=100.0))
    live = {}
    for step in range(40):
        admit_or_retire(rng, engine, live, step, 0.3)
        matchers = list(live.values())
        for sensor_id in ("s", "o"):
            registrations = engine._ingest_index.get(sensor_id, [])
            assert registrations == live_registrations(matchers, sensor_id)
            assert (sensor_id in engine._ingest_index) == bool(registrations)
            for attribute in ("t", "u"):
                for value in index_probes(GRID):
                    event = SimpleEvent(
                        sensor_id, attribute, Location(0.0, 0.0), value, 1.0
                    )
                    accepting = [
                        (timeline, matcher, own)
                        for operator, matcher in live.items()
                        for own, (slot, timeline) in enumerate(
                            zip(operator.slots, matcher._timelines)
                        )
                        if slot.accepts(event)
                    ]
                    routed = _accepting(registrations, attribute, value)
                    assert routed == accepting, (seed, step, sensor_id, value)
                    firsts = {}
                    for _timeline, matcher, own in routed:
                        firsts.setdefault(matcher, own)
                    for operator, matcher in live.items():
                        if matcher in firsts:
                            own = operator.slots[firsts[matcher]]
                            assert own is operator.slot_for_event(event)


def test_stabbing_index_discard_of_an_unregistered_matcher_raises():
    """Like an unpaired ``MatchingEngine.release``: a bookkeeping bug
    raises and changes nothing."""
    matcher = object()
    registration = ("t", 0.0, 2.0, (object(), matcher, 0))
    registrations = [registration]
    with pytest.raises(KeyError):
        _discard(registrations, object())
    assert registrations == [registration]
    _discard(registrations, matcher)
    assert registrations == []
    with pytest.raises(KeyError):
        _discard(registrations, matcher)  # a second discard is unpaired too
