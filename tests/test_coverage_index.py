"""The per-sensor coverage index and the three rules that read it.

``SubscriptionStore`` files every uncovered record's slots under their
sensors, in arrival rank, and the coverage rules read their candidates
from one bucket (``store.candidates(slot, before)``) instead of walking
the store.  The fences here:

* each rule decides what a walk of the whole store decides — FSF's set
  filter (exact, and probabilistic with twin seeded filters: the same
  decision and the same ``checks`` / ``sampled_points``), the pair-wise
  rule and multi-join's dispatch-ledger rule.  The walk is kept here as
  the oracle (``uncovered_before``, the method the index replaced);
* the index equals a fresh build from ``records()`` after every step of
  random arrivals, cancellations, repair uncovers and repair inserts
  ranked inside an earlier record, and all-cancel leaves it empty;
* ``matched_for_sensor`` yields in arrival rank, also after a
  cancellation repair inserts a rank-prefixed SPLIT join;
* the naive and centralized nodes never build the index.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.multijoin import SPLIT, _filter_covered
from repro.core.filter_split_forward import FSFConfig, FilterSplitForwardNode
from repro.matching import MatchingEngine
from repro.model import IdentifiedSubscription, Interval
from repro.model.intervals import union_covers
from repro.model.operators import CorrelationOperator, Slot
from repro.network.eventstore import EventStore
from repro.network.node import LOCAL, SeqSource, SubscriptionStore
from repro.protocols.registry import all_approaches
from repro.subsumption.pairwise import find_cover, pairwise_covered
from repro.subsumption.setfilter import ProbabilisticSetFilter

from deployments import fork_deployment, line_deployment, make_network, publish

SENSORS = ("a", "b", "c")
SUBS = ("q0", "q1", "q2", "q3")
# Overlapping ranges on a small grid: unions cover what no single range
# does, so the set filter reaches its Monte-Carlo phase.
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


def walk_fsf(config, set_filter, operator, store, before):
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
    if config.exact_filtering:
        return all(
            union_covers(candidates, slot.interval)
            for slot, candidates in zip(operator.slots, covers_per_slot)
        )
    return set_filter.is_product_subsumed(operator.as_box(), covers_per_slot)


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


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), operators(), st.booleans()),
        st.tuples(st.just("cancel"), st.sampled_from(SUBS)),
        st.tuples(st.just("uncover"), st.integers(0, 50)),
        st.tuples(st.just("insert"), st.integers(0, 50), operators(), st.booleans()),
    ),
    max_size=25,
)


def twin_filters(seed):
    """An FSF node's filter state and the walk's, on equal seeds."""
    config = FSFConfig(error_probability=0.2, gap_fraction=0.3)
    node = SimpleNamespace(
        config=config,
        set_filter=ProbabilisticSetFilter(0.2, 0.3, rng=np.random.default_rng(seed)),
    )
    return node, ProbabilisticSetFilter(0.2, 0.3, rng=np.random.default_rng(seed))


def check_rules(store, probes, twins):
    """Every rule against its walk, for every probe, at arrival and at
    the rank of every stored record (what a repair asks)."""
    ranks = [None] + [r.seq for r in store.records()]
    exact = SimpleNamespace(config=FSFConfig(exact_filtering=True))
    node, oracle = twins
    # Plus [1, 4] on every stored stream: [0, 3] and [2, 5] cover it
    # only together, which the set filter settles by sampling.
    streams = {
        (slot.slot_id, slot.attribute, slot.sensors)
        for record in store.records()
        for slot in record.operator.slots
    }
    probes = probes + [
        CorrelationOperator("p", "user", [Slot(*s[:2], Interval(1.0, 4.0), s[2])], 2.0, 10.0)
        for s in sorted(streams, key=lambda s: (s[0], sorted(s[2])))
    ]
    for operator in probes:
        for before in ranks:
            assert FilterSplitForwardNode.is_covered(
                exact, operator, store, before
            ) == walk_fsf(exact.config, None, operator, store, before)
            # Same decision, same draws: the twins' streams stay in step.
            assert FilterSplitForwardNode.is_covered(
                node, operator, store, before
            ) == walk_fsf(node.config, oracle, operator, store, before)
            assert node.set_filter.checks == oracle.checks
            assert node.set_filter.sampled_points == oracle.sampled_points
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
    seed=st.integers(0, 2**16),
)
def test_rules_decide_what_the_walk_decides(steps, probes, reads, seed):
    twins = twin_filters(seed)
    derived: dict = {}
    seqs = SeqSource()
    store = SubscriptionStore(MatchingEngine(EventStore(validity=100.0)), seqs)
    for step, read in zip(steps, reads):
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
        # Some stores are read from the start (every later step edits
        # the index), some only at the end (one build over everything).
        if read:
            check_rules(store, probes, twins)
            assert_index_is_a_fresh_build(store)
    check_rules(store, probes, twins)
    assert_index_is_a_fresh_build(store)
    for sub_id in SUBS:
        store.remove_subscription(sub_id)
    assert store._built_index() == {}


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
