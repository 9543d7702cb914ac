"""Structure-shared incremental matchers: sharing must be invisible.

:class:`~repro.matching.engine.MatchingEngine` answers every operator
with the same ``(slots, delta_t, delta_l)`` from one
:class:`~repro.matching.engine.OperatorMatcher`, swept once per arrival
into that arrival's hit map.  What callers observe must be what a
private matcher per operator would have shown them:

* a live network of cloned queries — submitted, cancelled, fed and
  fenced in arbitrary interleavings — routes the reference matcher's
  hit map at every arrival, for all five approaches (hypothesis; every
  network here runs shadowed, see ``tests/conftest.py``);
* releasing one clone leaves its siblings' matcher indexed and
  answering, and every sensor's registration list holds exactly the
  slots of the live matchers drawing from it;
* a clone admitted mid-replay answers like a freshly backfilled private
  matcher;
* every consumer of an arrival's hit map — clones held by different
  per-origin stores, the local delivery check — reads one result
  object with the reference's participants, and cannot write to it;
* anything that changes the mirrored store — another arrival, a
  horizon advance, a sensor fence — ends the map, and asking for the
  hits of any event but the latest arrival raises;
* a family of *near*-duplicates (exact clones, jittered intervals,
  jittered windows) in one engine answers every probe like one private
  engine per operator and like the reference, survives any release
  order, and is fenced as one (hypothesis).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.matching import MatchingEngine
from repro.model import Interval, Location, SimpleEvent
from repro.model.matching import matches_involving as reference_matches_involving
from repro.model.operators import CorrelationOperator, Slot
from repro.model.subscriptions import IdentifiedSubscription
from repro.network.eventstore import EventStore
from repro.network.network import Network
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.sim import Simulator

from test_matching_engine import (
    assert_hit_map,
    live_registrations,
    random_events,
    random_operator,
    reading,
)

APPROACH_KEYS = ("fsf", "naive", "operator_placement", "multijoin", "centralized")


# ---------------------------------------------------------------------------
# engine-level fixtures: one question asked by several subscriptions
# ---------------------------------------------------------------------------
SLOTS = (
    Slot("a", "t", Interval(0.0, 10.0), frozenset({"a"})),
    Slot("b", "t", Interval(0.0, 10.0), frozenset({"b", "b2"})),
)
ORIGIN = Location(0.0, 0.0)


def clone(sub_id: str, subscriber: str = "u", delta_t: float = 3.0) -> CorrelationOperator:
    return CorrelationOperator(sub_id, subscriber, SLOTS, delta_t)


def arena(validity: float = 100.0) -> tuple[EventStore, MatchingEngine]:
    store = EventStore(validity)
    return store, MatchingEngine(store)


def assert_ingest_indexes_fresh(engine):
    """Each index holds exactly the live matchers drawing from its
    sensor: one registration per drawing slot, in registration order,
    and a sensor has a list only while some live matcher draws from
    it."""
    matchers = list(engine._shared.values())
    assert set(engine._ingest_index) == {
        sensor_id for matcher in matchers for sensor_id in matcher.sensors()
    }
    for sensor_id, registrations in engine._ingest_index.items():
        assert {payload[1] for *_filter, payload in registrations} == {
            matcher for matcher in matchers if sensor_id in matcher.sensors()
        }
        assert registrations == live_registrations(matchers, sensor_id)


def keys(participants) -> dict[str, list[tuple[str, int]]]:
    return {slot: [e.key for e in events] for slot, events in participants.items()}


def assert_reference(matcher, store, operator, event):
    got = matcher.matches_involving(event)
    want = reference_matches_involving(operator, store, event)
    assert got == want, (operator.op_id, event)
    return got


# ---------------------------------------------------------------------------
# sharing and its bookkeeping
# ---------------------------------------------------------------------------
def test_clones_resolve_to_one_matcher_and_stay_distinct_operators():
    _, engine = arena()
    first, second = clone("q1", "u1"), clone("q2", "u2")
    assert engine.retain(first) is engine.retain(second)
    assert engine.n_matchers == 1
    assert engine.operators() == [first, second]
    # A different question — here only the window — gets its own.
    other = clone("q3", delta_t=4.0)
    assert engine.retain(other) is not engine.matcher(first)
    assert engine.n_matchers == 2


def test_release_of_one_clone_leaves_its_siblings_answering():
    store, engine = arena()
    gone, kept = clone("gone"), clone("kept")
    engine.retain(gone)
    matcher = engine.retain(kept)
    store.add(reading("a", 1.0, 0), now=1.0)
    engine.release(gone)
    assert engine.operators() == [kept]
    assert engine.n_matchers == 1
    # Still fed by the ingest index, still answering.
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    assert keys(assert_reference(matcher, store, kept, event)) == {
        "a": [("a", 0)],
        "b": [("b", 0)],
    }
    engine.release(kept)
    assert engine.operators() == []
    assert engine.n_matchers == 0
    assert engine.n_indexed_sensors == 0


def test_refcounts_are_per_operator():
    _, engine = arena()
    twice, once = clone("twice"), clone("once")
    engine.retain(twice)
    engine.retain(twice)
    engine.retain(once)
    engine.release(twice)
    assert engine.operators() == [once, twice]
    engine.release(twice)
    assert engine.operators() == [once]
    with pytest.raises(KeyError):
        engine.release(twice)  # unpaired: a refcount bug, not a no-op
    assert engine.n_matchers == 1


def test_clone_admitted_mid_replay_answers_like_a_fresh_private_matcher():
    events = [
        reading(sensor, 0.5 * i, i, value=float(i % 12))
        for i, sensor in enumerate(["a", "b", "b2", "a", "b", "a", "b2", "b", "a", "b"] * 2)
    ]
    shared_store, shared = arena()
    private_store, private = arena()
    early, late = clone("early"), clone("late")
    matcher = shared.retain(early)
    for i, event in enumerate(events):
        shared_store.add(event, now=event.timestamp)
        private_store.add(event, now=event.timestamp)
        if i == len(events) // 2:
            # Joins the matcher that has mirrored the store all along...
            assert shared.retain(late) is matcher
            # ...where the private engine builds and backfills one now.
            fresh = private.retain(late)
        if i >= len(events) // 2:
            got = assert_reference(matcher, shared_store, late, event)
            assert got == fresh.matches_involving(event)
    for event in events:  # re-query everything, earlier arrivals included
        got = assert_reference(matcher, shared_store, late, event)
        assert got == fresh.matches_involving(event)


# ---------------------------------------------------------------------------
# the hit map of one arrival
# ---------------------------------------------------------------------------
def shared_pair():
    """A store, its engine and the one matcher two clones resolve to
    (the operator is returned for the reference's side of each
    comparison)."""
    store, engine = arena(validity=4.0)
    first, second = clone("q1", "u1"), clone("q2", "u2")
    matcher = engine.retain(first)
    assert engine.retain(second) is matcher
    return store, engine, matcher, second


def test_every_consumer_of_an_arrival_reads_one_result_object():
    store, engine, matcher, operator = shared_pair()
    # What a node holds: a clone per origin store, the local root.
    held = [matcher, engine.retain(clone("q3", "u3")), engine.retain(clone("root"))]
    store.add(reading("a", 1.0, 0), now=1.0)
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    hits = engine.hits(event)
    assert list(hits) == [matcher]  # one sweep served them all
    reads = [hits.get(each) for each in held]
    assert all(read is reads[0] for read in reads)
    want = reference_matches_involving(operator, store, event)
    assert reads[0] == want and keys(reads[0]) == {"a": [("a", 0)], "b": [("b", 0)]}
    # The first consumer cannot have changed what the next one reads.
    with pytest.raises(TypeError):
        reads[0]["a"] = []
    with pytest.raises(TypeError):
        del reads[0]["b"]
    assert engine.hits(event)[matcher] == want


def test_an_arrival_ends_the_previous_hit_map():
    store, engine, matcher, operator = shared_pair()
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    assert engine.hits(event) == {}
    straggler = reading("a", 1.5, 0)  # completes the window
    store.add(straggler, now=2.0)
    with pytest.raises(LookupError):
        engine.hits(event)
    assert keys(engine.hits(straggler)[matcher]) == {"a": [("a", 0)], "b": [("b", 0)]}
    # The earlier event's answer moved with the store: a sweep has it.
    assert assert_reference(matcher, store, operator, event) == engine.hits(straggler)[matcher]


def test_a_horizon_advance_ends_the_hit_map():
    store, engine, matcher, operator = shared_pair()
    store.add(reading("a", 1.0, 0), now=1.0)
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    assert engine.hits(event)[matcher]
    store.prune(now=5.5)  # horizon 1.5: the partner expired, the event did not
    with pytest.raises(LookupError):
        engine.hits(event)
    assert not assert_reference(matcher, store, operator, event)


def test_a_fence_ends_the_hit_map():
    store, engine, matcher, operator = shared_pair()
    store.add(reading("a", 1.0, 0), now=1.0)
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    assert engine.hits(event)[matcher]
    store.fence_sensor("a", now=2.0)
    with pytest.raises(LookupError):
        engine.hits(event)
    assert not assert_reference(matcher, store, operator, event)


def test_only_the_latest_stored_arrival_has_a_hit_map():
    store, engine, _matcher, _operator = shared_pair()
    with pytest.raises(LookupError):
        engine.hits(reading("a", 1.0, 0))  # nothing has arrived yet
    first = reading("a", 1.0, 0)
    store.add(first, now=1.0)
    assert not store.add(first, now=1.0)  # a refused duplicate changes nothing
    assert engine.hits(first) == {}
    with pytest.raises(LookupError):
        engine.hits(reading("a", 1.0, 0))  # an equal event, not the arrival


# ---------------------------------------------------------------------------
# near-duplicate families: sharing tiers side by side (hypothesis)
# ---------------------------------------------------------------------------
_family_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def variant_family(rng, base: CorrelationOperator, n: int):
    """``n`` near-duplicates of ``base`` exercising every sharing tier.

    Each variant keeps the base's ``(attribute, sensors)`` slot groups
    and is one of: an exact clone (joins the base structure's matcher),
    an interval jitter (own matcher, same sensors in the ingest index),
    or a ``delta_t`` jitter (own matcher, same filters, different
    window).
    """
    family = []
    for i in range(n):
        kind = int(rng.integers(0, 3))
        slots = []
        for slot in base.slots:
            interval = slot.interval
            if kind == 1:
                interval = type(interval)(
                    interval.lo + float(rng.integers(-2, 3)) * 0.5,
                    interval.hi + float(rng.integers(-2, 3)) * 0.5,
                )
                if interval.hi < interval.lo:
                    interval = type(interval)(interval.hi, interval.lo)
            slots.append(
                Slot(slot.slot_id, slot.attribute, interval, slot.sensors)
            )
        delta_t = base.delta_t
        if kind == 2:
            delta_t = base.delta_t + float(rng.integers(0, 4)) * 0.5
        family.append(
            CorrelationOperator(
                f"q{i}", "user", tuple(slots), delta_t, base.delta_l
            )
        )
    return family


def family_arena(seed: int, smallest: int):
    """A seeded family plus its event stream, the shared (store, engine)
    and one isolated (store, matcher) per operator — the no-sharing
    baseline every shared answer is compared against."""
    rng = np.random.default_rng(seed)
    base = random_operator(rng)
    family = variant_family(rng, base, int(rng.integers(smallest, 6)))
    events = random_events(rng, base, n=int(rng.integers(25, 45)))
    solos = []
    for operator in family:
        store = EventStore(validity=1e9)
        solos.append((store, MatchingEngine(store).retain(operator)))
    store = EventStore(validity=1e9)
    return rng, base, family, events, store, MatchingEngine(store), solos


def add_everywhere(event, store, solos) -> bool:
    added = store.add(event, now=event.timestamp)
    for solo_store, _matcher in solos:
        assert solo_store.add(event, now=event.timestamp) == added
    return added


@given(seed=st.integers(min_value=0, max_value=100_000))
@_family_settings
def test_shared_matchers_equal_unshared(seed):
    """Sharing ≡ no sharing ≡ reference, probe for probe: one engine
    holding the whole family answers every arrival like each member
    alone in a private engine, and like the reference scan."""
    _, _, family, events, store, shared, solos = family_arena(seed, 2)
    matchers = [shared.retain(operator) for operator in family]
    assert shared.n_matchers <= len(family)
    for event in events:
        if not add_everywhere(event, store, solos):
            continue
        assert_hit_map(shared, store, family, event)
        for operator, matcher, (_store, solo) in zip(family, matchers, solos):
            context = (seed, operator.subscription_id)
            answer = assert_reference(matcher, store, operator, event)
            assert answer == solo.matches_involving(event), context


@given(seed=st.integers(min_value=0, max_value=100_000))
@_family_settings
def test_random_cancel_orders_never_disturb_survivors(seed):
    """Seeded random cancel/retire order over the shared family.

    Some operators are retained twice (refcount > 1); releases
    interleave with the event stream in a random order.  After every
    release the survivors keep answering exactly like their isolated
    baselines, and draining every reference tears the engine down to
    nothing.  After every release each sensor's registration list
    holds exactly the live matchers drawing from it."""
    rng, _, family, events, store, shared, solos = family_arena(seed, 3)
    matchers = {}
    held = []  # one entry per retained reference
    for operator in family:
        for _ in range(2 if rng.random() < 0.4 else 1):
            matchers[operator.subscription_id] = shared.retain(operator)
            held.append(operator)
    refs = Counter(operator.subscription_id for operator in held)
    release_at = {}  # event step -> operators losing one reference there
    for index in rng.permutation(len(held)):
        step = int(rng.integers(0, 2 * len(events)))  # half outlive the stream
        release_at.setdefault(step, []).append(held[index])

    for step, event in enumerate(events):
        for operator in release_at.pop(step, ()):
            shared.release(operator)
            refs[operator.subscription_id] -= 1
            assert_ingest_indexes_fresh(shared)
        live = set(+refs)
        assert {op.subscription_id for op in shared.operators()} == live
        if not add_everywhere(event, store, solos):
            continue
        assert_hit_map(shared, store, shared.operators(), event)
        for operator, (_store, solo) in zip(family, solos):
            if operator.subscription_id in live:
                assert matchers[operator.subscription_id].matches_involving(
                    event
                ) == solo.matches_involving(event), (
                    seed,
                    operator.subscription_id,
                    step,
                )
    for operators in release_at.values():
        for operator in operators:
            shared.release(operator)
            assert_ingest_indexes_fresh(shared)
    assert shared.operators() == []
    assert shared.n_matchers == 0
    assert shared.n_indexed_sensors == 0


@given(seed=st.integers(min_value=0, max_value=100_000))
@_family_settings
def test_drop_sensor_fences_all_sharers(seed):
    """One ``fence_sensor`` call on the store fences every operator
    drawing from the sensor, however its matcher is shared: answers
    stay identical to isolated engines fenced the same way, and no
    answer ever contains a member from the dropped sensor at or before
    the fence."""
    rng, base, family, events, store, shared, solos = family_arena(seed, 2)
    matchers = [shared.retain(operator) for operator in family]
    sensors = sorted({s for slot in base.slots for s in slot.sensors})
    fenced_sensor = sensors[int(rng.integers(0, len(sensors)))]
    fence_step = int(rng.integers(5, len(events)))
    fence_time = None

    for step, event in enumerate(events):
        if step == fence_step:
            fence_time = max(e.timestamp for e in events[:step])
            store.fence_sensor(fenced_sensor, fence_time)
            for solo_store, _matcher in solos:
                solo_store.fence_sensor(fenced_sensor, fence_time)
        if not add_everywhere(event, store, solos):
            continue
        assert_hit_map(shared, store, family, event)
        for operator, matcher, (_store, solo) in zip(family, matchers, solos):
            context = (seed, operator.subscription_id, step)
            answer = matcher.matches_involving(event)
            assert answer == solo.matches_involving(event), context
            if fence_time is None:
                continue
            for members in answer.values():
                for member in members:
                    assert not (
                        member.sensor_id == fenced_sensor
                        and member.timestamp <= fence_time
                    ), (context, member)


@given(seed=st.integers(min_value=0, max_value=100_000))
@_family_settings
def test_mixed_dtype_subround_timestamps_two_way(seed):
    """Dtype-pin regression: jittered sub-round timestamps built from
    ``int`` / numpy-scalar constructors answer identically both ways.

    Replay rounds produce integer round boundaries, fault jitter
    produces ``np.float64`` offsets a fraction of a round wide; the
    ``SimpleEvent`` float pin guarantees the engine's bisect tuples and
    the reference scan see the same plain-float value at exact window
    edges."""
    rng = np.random.default_rng(seed)
    operator = clone("q")
    raw_kinds = (int, float, np.int64, np.float64)
    store, engine = arena(validity=1e9)
    matcher = engine.retain(operator)
    compared = 0
    for i in range(40):
        round_no = int(rng.integers(0, 12))
        if rng.random() < 0.5:
            ts = raw_kinds[int(rng.integers(0, 2))](round_no)  # on-round
        else:  # sub-round jitter, sometimes a numpy scalar
            jitter = float(rng.integers(1, 8)) / 8.0
            kind = raw_kinds[2 + int(rng.integers(0, 2))]
            ts = np.float64(round_no) + np.float64(jitter)
            ts = kind(ts) if kind is np.float64 else np.float64(ts)
        sensor = ("a", "b", "b2")[int(rng.integers(0, 3))]
        event = SimpleEvent(sensor, "t", ORIGIN, float(rng.integers(-2, 13)), ts, i)
        assert type(event.timestamp) is float
        if store.add(event, now=event.timestamp):
            assert_reference(matcher, store, operator, event)
            compared += 1
    assert compared > 0


# ---------------------------------------------------------------------------
# live network of clones == reference matcher (hypothesis)
# ---------------------------------------------------------------------------
DEPLOYMENT = build_deployment(14, 2, seed=4)
SENSORS = sorted(DEPLOYMENT.sensors, key=lambda s: s.sensor_id)
USERS = list(DEPLOYMENT.user_nodes)
N_TEMPLATES = 3


def template(index: int) -> dict[str, tuple[str, float, float]]:
    """Two or three sensors, each with a band around its domain middle
    (readings below are drawn on a 0..8 grid across the whole domain)."""
    chosen = [SENSORS[(index * 2 + k) % len(SENSORS)] for k in range(2 + index % 2)]
    ranges = {}
    for placement in chosen:
        domain = placement.attribute.domain
        width = domain.hi - domain.lo
        ranges[placement.sensor_id] = (
            placement.attribute.name,
            domain.lo + 0.125 * width * (1 + index),
            domain.lo + 0.125 * width * (6 + index % 2),
        )
    return ranges


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, N_TEMPLATES - 1), st.integers(0, len(USERS) - 1)),
        st.tuples(st.just("cancel"), st.integers(0, 30), st.just(0)),
        st.tuples(st.just("fence"), st.integers(0, len(SENSORS) - 1), st.just(0)),
        # Readings three times as likely as any other step.
        *[
            st.tuples(st.just("ingest"), st.integers(0, len(SENSORS) - 1), st.integers(0, 8))
        ]
        * 3,
    ),
    min_size=4,
    max_size=28,
)


def drive(approach: str, ops, settles):
    """Run one op sequence on a fresh network; its deliveries."""
    network = Network(DEPLOYMENT, Simulator(seed=0))
    all_approaches()[approach].populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    live: list[tuple[str, str]] = []  # (user node, sub id), submit order
    attached = {s.sensor_id for s in SENSORS}
    seqs: dict[str, int] = {}
    submitted = 0
    for (kind, x, y), settle in zip(ops, settles):
        if kind == "submit":
            sub_id = f"t{x}c{submitted:03d}"
            submitted += 1
            subscription = IdentifiedSubscription.from_ranges(
                sub_id, template(x), delta_t=3.0
            )
            network.register_subscription(USERS[y], subscription)
            live.append((USERS[y], sub_id))
        elif kind == "cancel":
            if live:
                node_id, sub_id = live.pop(x % len(live))
                network.cancel_subscription(node_id, sub_id)
        elif kind == "ingest":
            placement = SENSORS[x]
            domain = placement.attribute.domain
            seq = seqs[placement.sensor_id] = seqs.get(placement.sensor_id, -1) + 1
            event = SimpleEvent(
                placement.sensor_id,
                placement.attribute.name,
                placement.location,
                domain.lo + (domain.hi - domain.lo) * y / 8.0,
                network.sim.now + 0.25,
                seq,
            )
            network.sim.at(
                event.timestamp,
                lambda e=event, p=placement: network.publish(p.node_id, e),
            )
        else:
            placement = SENSORS[x]
            if placement.sensor_id in attached:
                attached.discard(placement.sensor_id)
                network.detach_sensor(placement.node_id, placement.sensor_id)
            else:
                attached.add(placement.sensor_id)
                network.attach_sensor(placement.node_id, placement)
        if settle:
            network.run_to_quiescence()
    network.run_to_quiescence()
    delivered = {
        sub_id: sorted(network.delivery.delivered(sub_id))
        for sub_id in network.delivery.subscriptions()
    }
    return network, delivered


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, data=st.data())
def test_cloned_queries_match_the_reference_under_interleaving(ops, data):
    """submit / cancel / ingest / fence in any order, settled or still
    in flight: every arrival's hit map is the reference matcher's, for
    every approach (the shadow checks it)."""
    settles = data.draw(
        st.lists(st.booleans(), min_size=len(ops), max_size=len(ops)), label="settle"
    )
    for approach in APPROACH_KEYS:
        drive(approach, ops, settles)


@pytest.mark.parametrize("approach", APPROACH_KEYS)
def test_cancelling_one_clone_leaves_sibling_deliveries_intact(approach):
    """Three clones of one question at three user nodes; one retires
    mid-replay.  The siblings keep delivering — and every engine ends
    with exactly the survivors' operators."""
    ops = [("submit", 0, 0), ("submit", 0, 1), ("submit", 0, 2)]
    feed = [("ingest", i % len(SENSORS), (3 + i) % 9) for i in range(3 * len(SENSORS))]
    ops += feed[: len(feed) // 2] + [("cancel", 1, 0)] + feed[len(feed) // 2 :]
    settles = [True] * len(ops)
    network, delivered = drive(approach, ops, settles)
    assert any(delivered[sub_id] for sub_id in ("t0c000", "t0c002"))
    for node in network.nodes.values():
        assert not any(
            op.subscription_id == "t0c001" for op in node.matching.operators()
        )
