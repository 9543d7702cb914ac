"""The per-matcher stream index and the hit-map walk it serves.

``SubscriptionStore.streams`` groups a store's records by the matcher
they share; the event paths iterate an arrival's hit map and reach the
streams from that index instead of walking the store.  Three fences:

* the index is a pure function of ``records()`` — after any sequence
  of ``add`` / ``remove_subscription`` / ``uncover`` it equals a rescan
  (hypothesis), on both engines, duplicate op ids included;
* every ``(neighbour, event, streams)`` the two shared forward paths
  send equals what the replaced per-record walk over ``records()``
  sends (kept here as the test-local reference), in order, under
  randomized submit / cancel / ingest / fence interleavings and under
  compiled plans that fold a branch back to its sender;
* nothing outlives its records: all-cancel + drain and ``crash()``
  leave every index empty, on all five approaches.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.matching import MatchingEngine, ReferenceEngine
from repro.model import IdentifiedSubscription, Interval
from repro.model.operators import CorrelationOperator, Slot
from repro.network.eventstore import EventStore
from repro.network.messages import EventMessage
from repro.network.node import Node, SubscriptionStore
from repro.protocols.registry import all_approaches
from repro.workload.program import execute_program
from repro.workload.scenarios import PLACEMENT

from deployments import line_deployment, make_network, publish
from test_matcher_sharing import APPROACH_KEYS, OPS, drive

ENGINES = {"incremental": MatchingEngine, "reference": ReferenceEngine}


# ---------------------------------------------------------------------------
# (a) the index is a rescan of records()
# ---------------------------------------------------------------------------
def operator(sub: int, structure: int) -> CorrelationOperator:
    """Structures 0 and 1 differ only in the sensors behind slot ``b``:
    same op id for one subscription, different matcher.  Structure 2 is
    another question altogether."""
    if structure == 2:
        slots = [Slot("c", "t", Interval(0.0, 5.0), frozenset({"c"}))]
    else:
        behind_b = frozenset({"b", "b2"}) if structure == 0 else frozenset({"b"})
        slots = [
            Slot("a", "t", Interval(0.0, 10.0), frozenset({"a"})),
            Slot("b", "t", Interval(0.0, 10.0), behind_b),
        ]
    return CorrelationOperator(f"q{sub}", "user", slots, 3.0)


def rescan(store: SubscriptionStore) -> dict:
    want: dict = {}
    for record in store.records():
        group = want.setdefault(
            record.matcher,
            {"records": [], "uncovered": set(), "every": set(), "planned": set()},
        )
        op_id = record.operator.op_id
        group["records"].append(record)
        group["every"].add(op_id)
        if not record.covered:
            group["uncovered"].add(op_id)
        if record.planned:
            group["planned"].add(op_id)
    return want


def assert_index_is_a_rescan(store: SubscriptionStore) -> None:
    want = rescan(store)
    assert set(store.streams) == set(want)
    for matcher, group in store.streams.items():
        assert sorted(group.records, key=lambda r: r.seq) == want[matcher]["records"]
        assert group.uncovered == want[matcher]["uncovered"]
        assert group.every == want[matcher]["every"]
        assert group.planned == want[matcher]["planned"]


STORE_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 3),  # subscription
            st.integers(0, 2),  # structure
            st.booleans(),  # covered
            st.booleans(),  # planned
        ),
        st.tuples(st.just("remove"), st.integers(0, 3)),
        st.tuples(st.just("uncover"), st.integers(0, 50)),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(sorted(ENGINES)), steps=STORE_STEPS)
def test_index_equals_a_rescan_after_every_step(mode, steps):
    engine = ENGINES[mode](EventStore(validity=100.0))
    store = SubscriptionStore(engine)
    for step in steps:
        if step[0] == "add":
            _, sub, structure, covered, planned = step
            store.add(operator(sub, structure), covered=covered, planned=planned)
        elif step[0] == "remove":
            store.remove_subscription(f"q{step[1]}")
        else:
            covered = [r for r in store.records() if r.covered]
            if covered:
                store.uncover(covered[step[1] % len(covered)])
        assert_index_is_a_rescan(store)
    for sub in range(4):
        store.remove_subscription(f"q{sub}")
    assert store.streams == {}
    assert engine.operators() == []


@pytest.mark.parametrize("mode", sorted(ENGINES))
def test_two_records_with_one_op_id_are_one_stream(mode):
    """The same operator stored twice (one matcher) and a narrowed
    sibling with the same op id (another matcher): one stream per
    group however many records stand behind it, through uncover and
    removal of either twin."""
    engine = ENGINES[mode](EventStore(validity=100.0))
    store = SubscriptionStore(engine)
    first = store.add(operator(0, 0), covered=False)
    twin = store.add(operator(0, 0), covered=True)
    narrowed = store.add(operator(0, 1), covered=True)
    op_id = first.operator.op_id
    assert twin.operator.op_id == narrowed.operator.op_id == op_id
    assert first.matcher is twin.matcher is not narrowed.matcher
    shared, alone = store.streams[first.matcher], store.streams[narrowed.matcher]
    assert shared.records == [first, twin]
    assert shared.every == shared.uncovered == {op_id}
    assert alone.every == {op_id} and alone.uncovered == set()
    store.uncover(twin)  # already a stream through its uncovered twin
    assert shared.uncovered == {op_id}
    store.uncover(narrowed)
    assert alone.uncovered == {op_id}
    assert_index_is_a_rescan(store)
    # Another subscription's clone comes and goes: the twins stay.
    store.add(operator(1, 0), covered=False)
    store.remove_subscription("q1")
    assert store.streams[first.matcher].every == {op_id}
    assert store.has_operator(first.operator)
    assert_index_is_a_rescan(store)
    store.remove_subscription("q0")
    assert store.streams == {} and not store.has_operator(first.operator)


# ---------------------------------------------------------------------------
# (b) the walk: what the forward paths send == the per-record reference
# ---------------------------------------------------------------------------
def reference_pairs(node: Node, hits, sender: str, include_covered: bool):
    """The replaced walk: per neighbour, every stored record the arrival
    matched, one at a time, straight from ``records()``."""
    for neighbor in node.neighbors:
        store = node.stores.get(neighbor)
        if store is None:
            continue
        matched = [
            (record.operator, hits[record.matcher])
            for record in store.records()
            if record.matcher in hits
            and (include_covered or not record.covered)
            and (neighbor != sender or record.planned)
        ]
        yield neighbor, matched


def reference_pubsub_forward(node, hits, sender, include_covered=False):
    for neighbor, matched in reference_pairs(node, hits, sender, include_covered):
        outgoing = {}
        for _operator, participants in matched:
            for events in participants.values():
                for member in events:
                    if not node.was_sent(member.key, neighbor):
                        outgoing[member.key] = member
        for key, member in sorted(outgoing.items()):
            node.mark_sent(key, neighbor)
            node.send_event(neighbor, member)


def reference_stream_forward(node, hits, sender, include_covered):
    for neighbor, matched in reference_pairs(node, hits, sender, include_covered):
        outgoing = {}
        for operator, participants in matched:
            tag = (operator.op_id, neighbor)
            for events in participants.values():
                for member in events:
                    if not node.was_sent(member.key, tag):
                        node.mark_sent(member.key, tag)
                        outgoing.setdefault(member.key, (member, []))[1].append(
                            operator.op_id
                        )
        for _key, (member, streams) in sorted(outgoing.items()):
            node.send_event(neighbor, member, tuple(sorted(streams)))


@contextmanager
def forwarding(monkeypatch, reference: bool):
    """Log every ``send_event`` as ``(node, neighbour, key, streams)``;
    with ``reference`` the two shared paths are the per-record walk."""
    log: list[tuple] = []
    plain_send = Node.send_event

    def send_event(self, neighbor, event, streams=()):
        log.append((self.node_id, neighbor, event.key, streams))
        plain_send(self, neighbor, event, streams)

    with monkeypatch.context() as patch:
        patch.setattr(Node, "send_event", send_event)
        if reference:
            patch.setattr(Node, "pubsub_forward", reference_pubsub_forward)
            patch.setattr(Node, "stream_forward", reference_stream_forward)
        yield log


SHARED_PATHS = ("naive", "operator_placement", "fsf")


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(ops=OPS, data=st.data())
def test_forward_paths_send_what_the_record_walk_sends(monkeypatch, ops, data):
    settles = data.draw(
        st.lists(st.booleans(), min_size=len(ops), max_size=len(ops)), label="settle"
    )
    for approach in SHARED_PATHS:
        with forwarding(monkeypatch, reference=False) as sent:
            drive(approach, "incremental", ops, settles)
        with forwarding(monkeypatch, reference=True) as want:
            drive(approach, "incremental", ops, settles)
        assert sent == want, approach


@pytest.mark.parametrize("approach", SHARED_PATHS)
def test_a_long_replay_over_clones_sends_what_the_record_walk_sends(
    monkeypatch, approach
):
    """Clones of two questions at three user nodes and a replay dense
    enough that stored events match again and again: every repeat is
    owed only to the streams that have not carried it yet."""
    ops = [("submit", 0, 0), ("submit", 0, 1), ("submit", 1, 2), ("submit", 0, 2)]
    ops += [("ingest", i % 5, 3 + i % 2) for i in range(40)]  # all in band
    settles = [True] * len(ops)
    with forwarding(monkeypatch, reference=False) as sent:
        drive(approach, "incremental", ops, settles)
    with forwarding(monkeypatch, reference=True) as want:
        drive(approach, "incremental", ops, settles)
    assert sent == want and sent


@pytest.fixture(scope="module")
def planned_point():
    """Twenty compiled-placement queries: q00017's plan folds a branch
    back along its trunk, so matches travel back to their sender."""
    scenario = replace(PLACEMENT, placement="compiled")
    program = scenario.program(20)
    deployment = scenario.deployment()
    return program.with_prefix(20).compile(deployment, program.source(deployment))


@pytest.mark.parametrize("approach", SHARED_PATHS)
def test_planned_forwarding_sends_what_the_record_walk_sends(
    monkeypatch, planned_point, approach
):
    arrived: set[tuple] = set()
    plain_receive = Node.receive

    def receive(self, message, origin):
        if isinstance(message, EventMessage):
            arrived.add((self.node_id, origin, message.event.key))
        plain_receive(self, message, origin)

    monkeypatch.setattr(Node, "receive", receive)
    with forwarding(monkeypatch, reference=False) as sent:
        execute_program(planned_point, approach)
    with forwarding(monkeypatch, reference=True) as want:
        execute_program(planned_point, approach)
    assert sent == want
    # The fold-back arm was exercised: something went back to its sender.
    assert any((node, to, key) in arrived for node, to, key, _ in sent)


# ---------------------------------------------------------------------------
# (d) nothing outlives its records
# ---------------------------------------------------------------------------
def replayed(approach: str):
    net = make_network(line_deployment(), all_approaches()[approach])
    for user, sub_id in (("u2", "s"), ("u1", "t"), ("u2", "v")):
        net.register_subscription(
            user,
            IdentifiedSubscription.from_ranges(
                sub_id, {"a": ("t", 0.0, 10.0), "b": ("t", 0.0, 10.0)}, delta_t=5.0
            ),
        )
    net.run_to_quiescence()
    for i in range(8):
        publish(net, "ab"[i % 2], 5.0, ts=100.0 + i, seq=i)
    net.run_to_quiescence()
    assert any(store.streams for n in net.nodes.values() for store in n.stores.values())
    # The centralized subscriber keeps the registration only.
    assert net.nodes["u2"]._local_roots.streams or approach == "centralized"
    return net


def assert_no_streams(node: Node) -> None:
    assert all(store.streams == {} for store in node.stores.values()), node.node_id
    assert node._local_roots.streams == {}, node.node_id
    assert node.matching.operators() == [], node.node_id


@pytest.mark.parametrize("approach", APPROACH_KEYS)
def test_cancelling_everything_empties_every_index(approach):
    net = replayed(approach)
    for user, sub_id in (("u2", "s"), ("u1", "t"), ("u2", "v")):
        net.cancel_subscription(user, sub_id)
    net.run_to_quiescence()
    for node in net.nodes.values():
        assert_no_streams(node)


@pytest.mark.parametrize("approach", APPROACH_KEYS)
def test_a_crash_empties_every_index(approach):
    net = replayed(approach)
    for node in net.nodes.values():
        node.crash()
        assert node.stores == {} and node._sent == {}
        assert_no_streams(node)
