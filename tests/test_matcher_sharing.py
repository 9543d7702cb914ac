"""Structure-shared incremental matchers: sharing must be invisible.

:class:`~repro.matching.engine.MatchingEngine` answers every operator
with the same ``(slots, delta_t, delta_l)`` from one
:class:`~repro.matching.engine.OperatorMatcher` and serves the repeated
probes of one arrival from a memo.  What callers observe must be what a
private matcher per operator would have shown them:

* a live network of cloned queries — submitted, cancelled, fed and
  fenced in arbitrary interleavings — delivers and meters exactly like
  the reference matcher, for all five approaches (hypothesis);
* releasing one clone leaves its siblings' matcher indexed and
  answering;
* a clone admitted mid-replay answers like a freshly backfilled private
  matcher;
* every consumer of a memoised result sees the reference's
  participants, and cannot write to it;
* anything that changes the mirrored store between two probes of one
  event — another arrival, a horizon advance, a sensor fence — voids
  the memo.
"""

from __future__ import annotations

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


def reading(sensor: str, ts: float, seq: int, value: float = 5.0) -> SimpleEvent:
    return SimpleEvent(sensor, "t", ORIGIN, value, ts, seq)


def arena(validity: float = 100.0) -> tuple[EventStore, MatchingEngine]:
    store = EventStore(validity)
    return store, MatchingEngine(store)


def keys(participants) -> dict[str, list[tuple[str, int]]]:
    return {slot: [e.key for e in events] for slot, events in participants.items()}


def assert_reference(engine, store, operator, event):
    got = engine.matches_involving(operator, event)
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
    engine.retain(kept)
    store.add(reading("a", 1.0, 0), now=1.0)
    engine.release(gone)
    assert engine.operators() == [kept]
    assert engine.n_matchers == 1
    # Still fed by the ingest index, still answering.
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    assert keys(assert_reference(engine, store, kept, event)) == {
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
    shared.retain(early)
    for i, event in enumerate(events):
        shared_store.add(event, now=event.timestamp)
        private_store.add(event, now=event.timestamp)
        if i == len(events) // 2:
            # Joins the matcher that has mirrored the store all along...
            assert shared.retain(late) is shared.matcher(early)
            # ...where the private engine builds and backfills one now.
            private.retain(late)
        if i >= len(events) // 2:
            got = assert_reference(shared, shared_store, late, event)
            assert got == private.matches_involving(late, event)
    for event in events:  # re-query everything, earlier arrivals included
        got = assert_reference(shared, shared_store, late, event)
        assert got == private.matches_involving(late, event)


# ---------------------------------------------------------------------------
# the probe memo
# ---------------------------------------------------------------------------
def shared_pair():
    store, engine = arena(validity=4.0)
    first, second = clone("q1", "u1"), clone("q2", "u2")
    engine.retain(first)
    engine.retain(second)
    return store, engine, first, second


def test_consumers_of_one_memoised_result_see_the_reference_participants():
    store, engine, first, second = shared_pair()
    store.add(reading("a", 1.0, 0), now=1.0)
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    one = engine.matches_involving(first, event)
    two = engine.matches_involving(second, event)
    assert one is two  # one sweep served both
    want = reference_matches_involving(second, store, event)
    assert two == want and keys(two) == {"a": [("a", 0)], "b": [("b", 0)]}
    # The first consumer cannot have changed what the second one reads.
    with pytest.raises(TypeError):
        one["a"] = []
    with pytest.raises(TypeError):
        del one["b"]
    assert engine.matches_involving(first, event) == want


def test_an_arrival_between_two_probes_voids_the_memo():
    store, engine, first, second = shared_pair()
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    assert not engine.matches_involving(first, event)
    store.add(reading("a", 1.5, 0), now=2.0)  # a straggler completes the window
    assert keys(assert_reference(engine, store, second, event)) == {
        "a": [("a", 0)],
        "b": [("b", 0)],
    }


def test_a_horizon_advance_between_two_probes_voids_the_memo():
    store, engine, first, second = shared_pair()
    store.add(reading("a", 1.0, 0), now=1.0)
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    assert engine.matches_involving(first, event)
    store.prune(now=5.5)  # horizon 1.5: the partner expired, the event did not
    assert not assert_reference(engine, store, second, event)


def test_a_fence_between_two_probes_voids_the_memo():
    store, engine, first, second = shared_pair()
    store.add(reading("a", 1.0, 0), now=1.0)
    event = reading("b", 2.0, 0)
    store.add(event, now=2.0)
    assert engine.matches_involving(first, event)
    store.fence_sensor("a", now=2.0)
    assert not assert_reference(engine, store, second, event)


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


def drive(approach: str, matching: str, ops, settles):
    """Run one op sequence on a fresh network; everything observable."""
    network = Network(DEPLOYMENT, Simulator(seed=0), matching=matching)
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
    return {
        "traffic": network.meter.snapshot(),
        "delivered": {
            sub_id: sorted(network.delivery.delivered(sub_id))
            for sub_id in network.delivery.subscriptions()
        },
        "complex": dict(network.delivery.complex_deliveries),
        "dropped": sorted(network.dropped_subscriptions),
        "network": network,
    }


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, data=st.data())
def test_cloned_queries_match_the_reference_under_interleaving(ops, data):
    """submit / cancel / ingest / fence in any order, settled or still
    in flight: deliveries and traffic are those of the reference
    matcher, bit for bit, for every approach."""
    settles = data.draw(
        st.lists(st.booleans(), min_size=len(ops), max_size=len(ops)), label="settle"
    )
    for approach in APPROACH_KEYS:
        shared = drive(approach, "incremental", ops, settles)
        reference = drive(approach, "reference", ops, settles)
        for observable in ("traffic", "delivered", "complex", "dropped"):
            assert shared[observable] == reference[observable], (approach, observable)


@pytest.mark.parametrize("approach", APPROACH_KEYS)
def test_cancelling_one_clone_leaves_sibling_deliveries_intact(approach):
    """Three clones of one question at three user nodes; one retires
    mid-replay.  The siblings deliver what they deliver when the third
    is cancelled under the reference matcher — and every engine ends
    with exactly the survivors' operators."""
    ops = [("submit", 0, 0), ("submit", 0, 1), ("submit", 0, 2)]
    feed = [("ingest", i % len(SENSORS), (3 + i) % 9) for i in range(3 * len(SENSORS))]
    ops += feed[: len(feed) // 2] + [("cancel", 1, 0)] + feed[len(feed) // 2 :]
    settles = [True] * len(ops)
    shared = drive(approach, "incremental", ops, settles)
    reference = drive(approach, "reference", ops, settles)
    assert shared["delivered"] == reference["delivered"]
    assert shared["traffic"] == reference["traffic"]
    assert any(shared["delivered"][sub_id] for sub_id in ("t0c000", "t0c002"))
    for node in shared["network"].nodes.values():
        assert not any(
            op.subscription_id == "t0c001" for op in node.matching.operators()
        )
