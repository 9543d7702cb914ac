"""The per-sensor coverage index and the three rules that read it.

``SubscriptionStore`` files every uncovered record's slots under their
sensors, in arrival rank, and the coverage rules read their candidates
from one bucket (``store.candidates(slot, before)``) instead of walking
the store.  The fences here:

* each rule decides what a walk of the whole store decides — FSF's
  per-slot set filter, the pair-wise rule and multi-join's
  dispatch-ledger rule.  The walk is kept here as
  the oracle (``uncovered_before``, the method the index replaced);
* the index equals a fresh build from ``records()`` after every step of
  random arrivals, cancellations, repair uncovers and repair inserts
  ranked inside an earlier record, and all-cancel leaves it empty;
* ``matched_for_sensor`` yields in arrival rank, also after a
  cancellation repair inserts a rank-prefixed SPLIT join;
* the naive and centralized nodes never build the index;
* FSF's twin shortcut: a stored operator with the same slots, Δt and
  Δl answers "covered" exactly when the per-slot scan would, at every
  rank, and a clone's decision reads only its first slot's bucket.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.multijoin import SPLIT, _filter_covered
from repro.core import filter_split_forward
from repro.core.filter_split_forward import FilterSplitForwardNode
from repro.matching import MatchingEngine
from repro.model import IdentifiedSubscription, Interval
from repro.model.intervals import union_covers
from repro.model.operators import CorrelationOperator, Slot
from repro.network.eventstore import EventStore
from repro.network.node import LOCAL, SeqSource, SubscriptionStore
from repro.protocols.registry import all_approaches
from repro.subsumption.pairwise import find_cover, pairwise_covered

from deployments import fork_deployment, line_deployment, make_network, publish

SENSORS = ("a", "b", "c")
SUBS = ("q0", "q1", "q2", "q3")
# Overlapping ranges on a small grid: unions cover what no single range does.
BOUNDS = st.sampled_from([(0.0, 3.0), (2.0, 5.0), (1.0, 4.0), (0.0, 5.0)])


# ---------------------------------------------------------------------------
# the oracle: a walk of the whole store
# ---------------------------------------------------------------------------
def uncovered_before(store, before):
    return [
        r.operator
        for r in store.records()
        if not r.covered and (before is None or r.seq < before)
    ]


def walk_fsf(operator, store, before):
    slot_ids = {slot.slot_id for slot in operator.slots}
    covers_per_slot = []
    for slot in operator.slots:
        candidates = []
        for stored in uncovered_before(store, before):
            if stored.delta_t < operator.delta_t or stored.delta_l < operator.delta_l:
                continue
            if any(other.slot_id not in slot_ids for other in stored.slots):
                continue
            for other in stored.slots:
                if (
                    other.slot_id == slot.slot_id
                    and other.attribute == slot.attribute
                    and other.sensors >= slot.sensors
                ):
                    candidates.append(other.interval)
        if not candidates:
            return False
        covers_per_slot.append(candidates)
    return all(
        union_covers(candidates, slot.interval)
        for slot, candidates in zip(operator.slots, covers_per_slot)
    )


def walk_pairwise(operator, store, before):
    candidates = (
        stored
        for stored in uncovered_before(store, before)
        if stored.signature == operator.signature
    )
    return find_cover(operator, candidates) is not None


def walk_ledger(simple, store, before):
    return find_cover(simple, uncovered_before(store, before)) is not None


def fresh_build(store):
    index: dict = {}
    for record in store.records():
        if record.covered:
            continue
        for sensor_id in sorted(record.operator.sensors):
            for slot in record.operator.slots:
                if sensor_id in slot.sensors:
                    index.setdefault(sensor_id, []).append((record, slot))
    return index


def assert_index_is_a_fresh_build(store):
    built = store._built_index()
    want = fresh_build(store)
    assert set(built) == set(want)
    for sensor_id, bucket in want.items():
        got = built[sensor_id]
        assert [(id(r), s) for r, s in got] == [(id(r), s) for r, s in bucket]


# ---------------------------------------------------------------------------
# generated operators: identified and abstract slots, mixed Δt / Δl, and
# the binary joins multi-join's SPLIT arm stores
# ---------------------------------------------------------------------------
def sensor_sets(draw):
    return frozenset(
        draw(st.lists(st.sampled_from(SENSORS), min_size=1, max_size=2, unique=True))
    )


@st.composite
def operators(draw):
    if draw(st.sampled_from([True, True, False])):  # mostly identified
        slots = [
            Slot(s, "t", Interval(*draw(BOUNDS)), frozenset({s}))
            for s in sorted(sensor_sets(draw))
        ]
    else:
        attributes = draw(st.lists(st.sampled_from(["t", "u"]), min_size=1, unique=True))
        slots = [
            Slot(attribute, attribute, Interval(*draw(BOUNDS)), sensor_sets(draw))
            for attribute in attributes
        ]
    operator = CorrelationOperator(
        draw(st.sampled_from(SUBS)),
        "user",
        slots,
        draw(st.sampled_from([2.0, 5.0])),
        draw(st.sampled_from([math.inf, 10.0])),
    )
    if len(slots) > 1 and draw(st.booleans()):
        operator = draw(st.sampled_from(operator.binary_joins()))
    return operator


def clone(operator, **changes):
    """The same operator under another subscription id."""
    return CorrelationOperator(
        changes.get("subscription_id", "clone"),
        "user",
        operator.slots,
        changes.get("delta_t", operator.delta_t),
        changes.get("delta_l", operator.delta_l),
        operator.main_slot,
    )


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), operators(), st.booleans()),
        st.tuples(st.just("cancel"), st.sampled_from(SUBS)),
        st.tuples(st.just("uncover"), st.integers(0, 50)),
        st.tuples(st.just("insert"), st.integers(0, 50), operators(), st.booleans()),
    ),
    max_size=25,
)


def fresh_store():
    seqs = SeqSource()
    return SubscriptionStore(MatchingEngine(EventStore(validity=100.0)), seqs), seqs


def apply_step(store, seqs, derived, step):
    """One of ``STEPS`` on ``store``; ``derived`` counts repair ranks."""
    kind = step[0]
    if kind == "arrive":
        seqs.begin_arrival()
        store.add(step[1], covered=step[2], matched=False)
    elif kind == "cancel":
        store.remove_subscription(step[1])
    elif kind == "uncover":
        covered = [r for r in store.records() if r.covered]
        if covered:
            store.uncover(covered[step[1] % len(covered)])
    else:
        # A repair derives entries ranked inside an earlier record,
        # each rank once (a record is repaired at most once).
        records = store.records()
        if records:
            prefix = records[step[1] % len(records)].seq
            derived[prefix] = derived.get(prefix, 0) + 1
            seq = prefix + (derived[prefix],)
            store.add(step[2], covered=step[3], seq=seq, matched=False)


def check_rules(store, probes):
    """Every rule against its walk, for every probe, at arrival and at
    the rank of every stored record (what a repair asks)."""
    ranks = [None] + [r.seq for r in store.records()]
    fsf = SimpleNamespace()  # FSF's rule reads no node state
    # Plus [1, 4] on every stored stream: [0, 3] and [2, 5] cover it
    # only together.
    streams = {
        (slot.slot_id, slot.attribute, slot.sensors)
        for record in store.records()
        for slot in record.operator.slots
    }
    probes = probes + [
        CorrelationOperator("p", "user", [Slot(*s[:2], Interval(1.0, 4.0), s[2])], 2.0, 10.0)
        for s in sorted(streams, key=lambda s: (s[0], sorted(s[2])))
    ]
    # Plus a clone of every stored operator: a twin for FSF's shortcut
    # wherever that operator is uncovered and ranked before ``before``.
    probes += [clone(record.operator) for record in store.records()]
    for operator in probes:
        for before in ranks:
            assert FilterSplitForwardNode.is_covered(
                fsf, operator, store, before
            ) == walk_fsf(operator, store, before)
            assert pairwise_covered(operator, store, before) == walk_pairwise(
                operator, store, before
            )
            if operator.is_simple:
                assert _filter_covered(operator, store, before) == walk_ledger(
                    operator, store, before
                )


@settings(max_examples=200, deadline=None)
@given(
    steps=STEPS,
    probes=st.lists(operators(), min_size=1, max_size=4),
    reads=st.lists(st.booleans(), min_size=25, max_size=25),
)
def test_rules_decide_what_the_walk_decides(steps, probes, reads):
    store, seqs = fresh_store()
    derived: dict = {}
    for step, read in zip(steps, reads):
        apply_step(store, seqs, derived, step)
        # Some stores are read from the start (every later step edits
        # the index), some only at the end (one build over everything).
        if read:
            check_rules(store, probes)
            assert_index_is_a_fresh_build(store)
    check_rules(store, probes)
    assert_index_is_a_fresh_build(store)
    for sub_id in SUBS:
        store.remove_subscription(sub_id)
    assert store._built_index() == {}


@settings(max_examples=200, deadline=None)
@given(
    steps=STEPS,
    changes=st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                "delta_t": st.sampled_from([2.0, 5.0]),
                "delta_l": st.sampled_from([math.inf, 10.0]),
            },
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_the_twin_shortcut_answers_what_the_scan_answers(steps, changes):
    """FSF's rule with and without the twin shortcut, asked of clones
    and near-clones (another Δt or Δl) of every stored operator, at
    arrival and at the rank of every stored record."""
    store, seqs = fresh_store()
    derived: dict = {}
    for step in steps:
        apply_step(store, seqs, derived, step)
    probes = [
        clone(record.operator, **change)
        for record in store.records()
        for change in changes
    ]
    ranks = [None] + [r.seq for r in store.records()]
    fsf = SimpleNamespace()
    shortcut = [
        FilterSplitForwardNode.is_covered(fsf, operator, store, before)
        for operator in probes
        for before in ranks
    ]
    with mock.patch.object(filter_split_forward, "_has_twin", lambda *args: False):
        scan = [
            FilterSplitForwardNode.is_covered(fsf, operator, store, before)
            for operator in probes
            for before in ranks
        ]
    assert shortcut == scan


class ReadCounter:
    """A store view that records which slots' buckets are read."""

    def __init__(self, store):
        self.store, self.read = store, []

    def candidates(self, slot, before):
        self.read.append(slot)
        return self.store.candidates(slot, before)


def test_a_clone_reads_only_its_first_slots_bucket():
    store = SubscriptionStore(MatchingEngine(EventStore(validity=100.0)))
    stored = CorrelationOperator(
        "q",
        "user",
        [Slot(s, "t", Interval(0.0, 3.0), frozenset({s})) for s in SENSORS],
        5.0,
    )
    store.add(stored, covered=False, matched=False)
    fsf = SimpleNamespace()
    twin = clone(stored)
    view = ReadCounter(store)
    assert FilterSplitForwardNode.is_covered(fsf, twin, view)
    assert view.read == [twin.slots[0]]
    # Narrower on the last slot: no twin, covered by the scan, which
    # reads every slot's bucket once.
    narrower = CorrelationOperator(
        "r",
        "user",
        [*stored.slots[:2], replace(stored.slots[2], interval=Interval(1.0, 2.0))],
        5.0,
    )
    view = ReadCounter(store)
    assert FilterSplitForwardNode.is_covered(fsf, narrower, view)
    assert view.read == list(narrower.slots)
    # A twin ranked at or after ``before`` is not one: a repair asks
    # what the arrival saw.
    view = ReadCounter(store)
    assert not FilterSplitForwardNode.is_covered(fsf, twin, view, store.records()[0].seq)
    assert view.read == [twin.slots[0]]


def test_an_unread_store_builds_nothing():
    store = SubscriptionStore(MatchingEngine(EventStore(validity=100.0)))
    store.add(
        CorrelationOperator(
            "q", "user", [Slot("a", "t", Interval(0.0, 1.0), frozenset({"a"}))], 5.0
        ),
        covered=False,
    )
    assert store._index is None
    store.remove_subscription("q")
    assert store._index is None


# ---------------------------------------------------------------------------
# arrival rank through a real cancellation repair
# ---------------------------------------------------------------------------
def two_way(sub_id: str, lo: float, hi: float) -> IdentifiedSubscription:
    return IdentifiedSubscription.from_ranges(
        sub_id, {"a": ("t", lo, hi), "b": ("t", lo, hi)}, delta_t=5.0
    )


def test_repair_inserts_split_joins_at_their_arrival_rank():
    """Submitted at the divergence node ``mid``: ``p`` covers ``q``, and
    ``r`` arrives after ``q``.  Cancelling ``p`` restores ``q``, whose SPLIT arm stores
    its binary joins ranked inside ``q``'s arrival: the role walk meets
    them before everything of ``r``, not after (add order)."""
    net = make_network(fork_deployment(), all_approaches()["multijoin"])
    for sub_id, lo, hi in (("p", 0.0, 10.0), ("q", 2.0, 5.0), ("r", 20.0, 30.0)):
        net.register_subscription("mid", two_way(sub_id, lo, hi))
        net.run_to_quiescence()
    mid = net.nodes["mid"]
    store = mid.stores[LOCAL]
    assert [op.op_id for op in store.covered] == ["q[a,b]"]
    assert store._index is not None  # read by every arrival's coverage rule
    net.cancel_subscription("mid", "p")
    net.run_to_quiescence()
    assert mid.roles["q[a,b]"] == SPLIT
    walked = [op.op_id for op, _ in store.matched_for_sensor("a")]
    assert walked == [
        "q[a,b]",
        "q[a,b]|bj:a",
        "q[a,b]|bj:b",
        "r[a,b]",
        "r[a,b]|bj:a",
        "r[a,b]|bj:b",
    ]
    assert_index_is_a_fresh_build(store)


@pytest.mark.parametrize("approach", ["naive", "centralized"])
def test_nodes_without_a_coverage_rule_build_no_index(approach):
    net = make_network(line_deployment(), all_approaches()[approach])
    for user, sub_id in (("u2", "s"), ("u1", "t")):
        net.register_subscription(user, two_way(sub_id, 0.0, 10.0))
    net.run_to_quiescence()
    for i in range(6):
        publish(net, "ab"[i % 2], 5.0, ts=100.0 + i, seq=i)
    net.run_to_quiescence()
    stores = [s for n in net.nodes.values() for s in (*n.stores.values(), n._local_roots)]
    assert any(len(s) for s in stores)
    assert all(s._index is None for s in stores)
