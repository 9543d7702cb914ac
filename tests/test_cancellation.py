"""Machine-checked cancellation equivalence.

``handle.cancel()`` / ``Network.cancel_subscription`` threads an
:class:`UnsubscribeMessage` along exactly the links the subscription's
operators travelled, removing them and repairing coverage decisions.
This suite pins the guarantees, across all four distributed approaches
plus the centralized baseline, with every node's engine shadowed by the
reference matcher (``tests/conftest.py``):

* **settled cancellation is exact** — submit → quiesce → cancel →
  quiesce → replay is bit-identical to never having subscribed: same
  replay traffic, same survivor deliveries, same per-node stored
  operators and registered matchers (100 seeded scenarios); coverage
  flags match too except where a re-forwarded operator landed behind a
  survivor that covers it, which the suite re-verifies as safe
  (see :func:`assert_equivalent_stores`);
* **any cancellation leaves zero footprint of the cancelled query** —
  no stored operator, matcher, role, ring join, dispatched filter or
  forwarded-path memory anywhere, and zero post-cancel deliveries,
  even when the cancel chases the subscription flood mid-flight; and
  cancelling *every* query drains every node's engine completely;
* **mid-flood cancellation is safe** — the pairwise approaches never
  lose a survivor's delivery relative to never-subscribed (coverage
  falls back to covering supersets); FSF's union coverage may re-roll
  its documented gap, which the suite tracks but does not forbid;
* **the oracle fences cancelled queries exactly like departed
  sensors**, identically in both truth passes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from deployments import line_deployment, publish
from repro.experiments.runner import REPLAY_START
from repro.metrics.fences import Fences
from repro.metrics.oracle import compute_truth
from repro.model.subscriptions import IdentifiedSubscription
from repro.network.messages import UnsubscribeMessage
from repro.network.network import Network
from repro.network.node import LOCAL
from repro.network.topology import build_deployment
from repro.placement import compile_placement
from repro.protocols.registry import all_approaches
from repro.sim import Simulator
from repro.workload.sensorscope import ReplayConfig, build_replay
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)

APPROACH_KEYS = ("fsf", "naive", "operator_placement", "multijoin", "centralized")


def arena(seed: int):
    """One seeded scenario: tiny deployment, short replay, 8 queries."""
    deployment = build_deployment(16, 2, seed=seed)
    replay = build_replay(deployment, ReplayConfig(rounds=12, seed=seed * 5 + 3))
    workload = generate_subscriptions(
        deployment,
        replay.medians,
        SubscriptionWorkloadConfig(
            n_subscriptions=8, attrs_min=2, attrs_max=4, seed=seed
        ),
        spreads=replay.spreads,
    )
    return deployment, replay, workload


def run_arena(
    seed,
    approach_key,
    cancel_ids,
    register_cancelled,
    mid_flood=False,
):
    """One live run; cancels ``cancel_ids`` (settled or mid-flood), then
    replays the events and returns everything observable."""
    deployment, replay, workload = arena(seed)
    sim = Simulator(seed=deployment.seed)
    network = Network(deployment, sim)
    all_approaches()[approach_key].populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    for placed in workload:
        if placed.subscription.sub_id in cancel_ids and not register_cancelled:
            continue
        network.register_subscription(placed.node_id, placed.subscription)
        if not mid_flood:
            network.run_to_quiescence()
    for placed in workload:
        if placed.subscription.sub_id in cancel_ids and register_cancelled:
            network.cancel_subscription(placed.node_id, placed.subscription.sub_id)
            if not mid_flood:
                network.run_to_quiescence()
    network.run_to_quiescence()
    before_replay = network.meter.snapshot()
    shifted = replay.shifted(REPLAY_START)
    node_of = {s.sensor_id: s.node_id for s in deployment.sensors}
    sim.schedule_timeline(
        (e.timestamp, lambda e=e: network.publish(node_of[e.sensor_id], e))
        for e in shifted
    )
    network.run_to_quiescence()
    return {
        "network": network,
        "replay_traffic": network.meter.snapshot().minus(before_replay),
        "delivered": {
            sub_id: set(network.delivery.delivered(sub_id))
            for sub_id in network.delivery.subscriptions()
        },
        "complex": dict(network.delivery.complex_deliveries),
        "dropped": sorted(network.dropped_subscriptions),
    }


def stored_state(network):
    """Per-node stored operators with coverage flags.

    Compared as sorted multisets: repair re-forwards a restored
    operator's fragments *after* the unsubscribe reached the node, so a
    downstream store can hold the identical records at a different list
    position than the never-subscribed run — arrival order below a
    repair is deliberately not part of the guarantee (coverage checks
    consult the whole uncovered set, so position never changes a
    decision's outcome, only which equivalent cover is named).
    """
    state = {}
    for node_id in sorted(network.nodes):
        node = network.nodes[node_id]
        for origin in sorted(node.stores):
            records = node.stores[origin].records()
            if records:
                state[(node_id, origin)] = sorted(
                    ((r.operator, r.covered) for r in records),
                    key=lambda pair: (
                        pair[0].op_id,
                        pair[1],
                        tuple((s.interval.lo, s.interval.hi) for s in pair[0].slots),
                    ),
                )
    return state


def assert_equivalent_stores(run_network, base_network, context):
    """Post-cancel stores == never-subscribed stores, modulo safe flags.

    The same operators must be stored at the same (node, origin); a
    coverage flag may differ only when a re-forwarded operator arrived
    behind a survivor that covers it (the covering superset pulls at
    least its events, so decisions/traffic/deliveries — asserted
    bit-identical separately — cannot change).  Any flagged-covered
    record must name a live same-signature cover in its own store.
    """
    run_state = stored_state(run_network)
    base_state = stored_state(base_network)
    assert set(run_state) == set(base_state), context
    for key in run_state:
        run_ops = [op for op, _ in run_state[key]]
        base_ops = [op for op, _ in base_state[key]]
        assert run_ops == base_ops, (context, key)
        if run_state[key] == base_state[key]:
            continue
        node_id, origin = key
        for (op, run_covered), (_, base_covered) in zip(
            run_state[key], base_state[key]
        ):
            if run_covered == base_covered:
                continue
            # Whichever run holds the flag covered must justify it with
            # the approach's own coverage check against its live store.
            network = run_network if run_covered else base_network
            node = network.nodes[node_id]
            store = node.stores[origin]
            record = next(
                r for r in store.records() if r.operator == op and r.covered
            )
            assert node.is_covered(record.operator, store, record.seq), (
                context,
                key,
                op.op_id,
            )


def matcher_state(network):
    """Operators retained by each node's engine."""
    return {
        node_id: [op.op_id for op in node.matching.operators()]
        for node_id, node in network.nodes.items()
    }


def assert_no_trace(network, sub_id):
    """The cancelled query left zero footprint anywhere in the network."""
    for node_id, node in network.nodes.items():
        where = f"node {node_id}"
        for origin, store in node.stores.items():
            assert not any(
                r.operator.subscription_id == sub_id for r in store.records()
            ), f"store[{origin}] at {where}"
        assert not any(
            sub.sub_id == sub_id for sub, _ in node.local_subscriptions
        ), where
        assert not any(
            r.operator.subscription_id == sub_id
            for r in node._local_roots.records()
        ), where
        assert sub_id not in node._forwarded_subs, where
        assert not any(
            op.subscription_id == sub_id for op in node.matching.operators()
        ), where
        for attr in ("roles", "_ring_cache"):
            mapping = getattr(node, attr, None)
            if mapping:
                assert not any(
                    key.startswith(f"{sub_id}[") for key in mapping
                ), f"{attr} at {where}"
        dispatched = getattr(node, "_dispatched_filters", None)
        if dispatched:
            for ledger in dispatched.values():
                assert not any(
                    r.operator.subscription_id == sub_id for r in ledger.records()
                ), f"dispatched filters at {where}"


# ---------------------------------------------------------------------------
# message + unit mechanics
# ---------------------------------------------------------------------------
class TestUnsubscribeMessage:
    def test_unit_accounting(self):
        message = UnsubscribeMessage("q1")
        assert message.subscription_units == 1
        assert message.event_units == 0
        assert message.advertisement_units == 0

    def test_cancel_retraces_the_forward_paths(self, line):
        """On the line topology the teardown costs exactly the placement."""
        sim = Simulator(seed=0)
        network = Network(line_deployment(), sim)
        all_approaches()["fsf"].populate(network)
        network.attach_all_sensors()
        network.run_to_quiescence()
        sub = IdentifiedSubscription.from_ranges(
            "q", {"a": ("t", 0.0, 10.0), "b": ("t", 0.0, 10.0)}, delta_t=5.0
        )
        network.register_subscription("u2", sub)
        network.run_to_quiescence()
        placed = network.meter.snapshot().subscription_units
        assert placed > 0
        network.cancel_subscription("u2", "q")
        network.run_to_quiescence()
        total = network.meter.snapshot().subscription_units
        assert total == 2 * placed  # same links, one unit each, back out
        assert_no_trace(network, "q")

    def test_cancel_unknown_subscription(self, line):
        network = Network(line_deployment(), Simulator(seed=0))
        all_approaches()["fsf"].populate(network)
        network.attach_all_sensors()
        network.run_to_quiescence()
        assert network.cancel_subscription("u2", "ghost") is False


# ---------------------------------------------------------------------------
# settled cancellation == never subscribed (100 seeded scenarios)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("chunk", range(10))
def test_settled_cancel_equals_never_subscribed(chunk):
    """submit → cancel → replay, bit-identical to never-subscribed.

    Approaches round-robin over the seeds (all five covered each chunk);
    compared: replay traffic,
    survivor deliveries and complex counts, per-node stored operators +
    coverage flags, registered matcher sets, and the cancelled queries'
    zero deliveries + zero footprint.
    """
    for seed in range(chunk * 10, chunk * 10 + 10):
        cancel_ids = {f"q{i:05d}" for i in ((seed % 3), 3 + (seed % 4), 7)}
        approach = APPROACH_KEYS[seed % len(APPROACH_KEYS)]
        run = run_arena(seed, approach, cancel_ids, True)
        base = run_arena(seed, approach, cancel_ids, False)
        context = (seed, approach)
        assert run["replay_traffic"] == base["replay_traffic"], context
        survivors = {k for k in base["delivered"] if k not in cancel_ids}
        for sub_id in survivors:
            assert run["delivered"].get(sub_id, set()) == base[
                "delivered"
            ].get(sub_id, set()), (context, sub_id)
        assert {
            k: v for k, v in run["complex"].items() if k not in cancel_ids
        } == base["complex"], context
        assert_equivalent_stores(run["network"], base["network"], context)
        assert matcher_state(run["network"]) == matcher_state(
            base["network"]
        ), context
        for sub_id in cancel_ids:
            assert not run["delivered"].get(sub_id), (context, sub_id)
            assert_no_trace(run["network"], sub_id)


@pytest.mark.parametrize("approach", ["fsf", "operator_placement"])
def test_settled_cancel_leaves_a_planned_piece_alone(approach):
    """The same equivalence with a compiled-plan piece in the repaired
    store.  A planned piece is stored uncovered and never filtered, so
    the covered-only repair walk never asks about it and its ``planned``
    mark (the fold-back permission) survives the repair."""
    deployment = line_deployment()

    def sub(sub_id, lo, hi):
        return IdentifiedSubscription.from_ranges(
            sub_id, {"a": ("t", lo, hi), "b": ("t", lo, hi)}, delta_t=5.0
        )

    planned = sub("p", 40.0, 60.0)
    admission = type(
        "Admission", (), {"sub_id": "p", "node_id": "u2", "subscription": planned}
    )()
    plan = compile_placement(deployment, [admission], [])["p"]

    def run(with_wide):
        network = Network(deployment, Simulator(seed=0))
        all_approaches()[approach].populate(network)
        network.attach_all_sensors()
        network.run_to_quiescence()
        asked = []
        if with_wide:
            network.register_subscription("u2", sub("wide", 0.0, 30.0))
        network.register_subscription("u2", planned, plan=plan)
        network.register_subscription("u2", sub("narrow", 10.0, 20.0))
        network.run_to_quiescence()
        if with_wide:
            for node in network.nodes.values():
                def spy(operator, store, before=None, inner=node.is_covered):
                    asked.append(operator.subscription_id)
                    return inner(operator, store, before)

                node.is_covered = spy
            network.cancel_subscription("u2", "wide")
            network.run_to_quiescence()
        before_replay = network.meter.snapshot()
        for seq, (sensor_id, value) in enumerate(
            [("a", 15.0), ("b", 15.0), ("a", 50.0), ("b", 50.0)]
        ):
            publish(network, sensor_id, value, ts=network.sim.now + 10.0 + seq, seq=seq)
        network.run_to_quiescence()
        marks = {
            (node_id, origin, record.operator.op_id): (record.covered, record.planned)
            for node_id, node in network.nodes.items()
            for origin, store in node.stores.items()
            for record in store.records()
        }
        delivered = {
            sub_id: sorted(network.delivery.delivered(sub_id))
            for sub_id in ("p", "narrow")
        }
        traffic = network.meter.snapshot().minus(before_replay)
        return network, asked, marks, delivered, traffic

    repaired, asked, marks, delivered, traffic = run(with_wide=True)
    base, _, base_marks, base_delivered, base_traffic = run(with_wide=False)
    assert asked and set(asked) == {"narrow"}  # repair did run, on narrow only
    assert marks[("u2", LOCAL, "p[a,b]")] == (False, True)
    assert marks[("u2", LOCAL, "narrow[a,b]")] == (False, False)  # restored
    assert marks == base_marks
    assert delivered == base_delivered and all(delivered.values())
    assert traffic == base_traffic
    assert_equivalent_stores(repaired, base, approach)
    assert matcher_state(repaired) == matcher_state(base)
    assert_no_trace(repaired, "wide")


# ---------------------------------------------------------------------------
# mid-flood cancellation is safe
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("chunk", range(5))
def test_mid_flood_cancel_is_safe(chunk):
    """Cancel while the operator flood is still in flight.

    The unsubscribe chases the operator messages one hop behind; once
    everything quiesces the cancelled query has zero footprint and zero
    deliveries.  For the pairwise approaches a survivor never loses a
    delivery relative to never-subscribed (coverage falls back to a
    covering superset, which pulls at least the same events); FSF's
    union coverage may re-roll its documented recall gap either way.
    """
    for seed in range(chunk * 10, chunk * 10 + 10):
        cancel_ids = {f"q{i:05d}" for i in (seed % 4, 4 + seed % 4)}
        approach = APPROACH_KEYS[seed % len(APPROACH_KEYS)]
        run = run_arena(seed, approach, cancel_ids, True, mid_flood=True)
        base = run_arena(seed, approach, cancel_ids, False)
        context = (seed, approach)
        for sub_id in cancel_ids:
            assert not run["delivered"].get(sub_id), (context, sub_id)
            assert_no_trace(run["network"], sub_id)
        if approach != "fsf":
            survivors = {k for k in base["delivered"] if k not in cancel_ids}
            for sub_id in survivors:
                lost = base["delivered"].get(sub_id, set()) - run[
                    "delivered"
                ].get(sub_id, set())
                assert not lost, (context, sub_id)


@pytest.mark.parametrize("matching", ["incremental", "reference"])
@pytest.mark.parametrize("approach", APPROACH_KEYS)
def test_cancelling_everything_after_the_replay_drains_every_engine(
    approach, matching, matcher
):
    """All-cancel + drain leaves no engine state at all.

    The cancels come *after* the replay, so everything the event path
    retains on demand (the multi-join relays' ring joins) exists when
    the teardown starts.  Afterwards no node's engine holds a retained
    operator (hence a refcount), no matcher and no per-sensor ingest
    index — with matchers shared between
    operators, a reference dropped once too often or once too rarely
    shows up here.  Run on the bare engine and on the shadowed one.
    """
    matcher(matching)
    for seed in (2, 3, 5):
        run = run_arena(seed, approach, set(), True)
        network = run["network"]
        assert any(node.matching.operators() for node in network.nodes.values())
        if approach == "multijoin":
            # Whole operators and leaf filters hold no matcher: their
            # removal must release nothing, the joins' exactly once.
            assert any(
                record.matcher is None
                for node in network.nodes.values()
                for store in node.stores.values()
                for record in store.records()
            )
        _, _, workload = arena(seed)
        for placed in workload:
            network.cancel_subscription(placed.node_id, placed.subscription.sub_id)
        network.run_to_quiescence()
        for node_id, node in network.nodes.items():
            context = (seed, node_id)
            assert node.matching.operators() == [], context
            assert node.matching.n_matchers == 0, context
            assert node.matching.n_indexed_sensors == 0, context
            assert not any(len(store) for store in node.stores.values()), context
        for placed in workload:
            assert_no_trace(network, placed.subscription.sub_id)


# ---------------------------------------------------------------------------
# post-cancel silence (property)
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    value_a=st.floats(0.0, 10.0),
    value_b=st.floats(0.0, 10.0),
    gap=st.floats(0.0, 4.0),
    approach=st.sampled_from(APPROACH_KEYS),
)
def test_post_cancel_publications_never_deliver(value_a, value_b, gap, approach):
    """Whatever correlates after the cancel settles, the user is gone."""
    network = Network(line_deployment(), Simulator(seed=0))
    all_approaches()[approach].populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    sub = IdentifiedSubscription.from_ranges(
        "q", {"a": ("t", 0.0, 10.0), "b": ("t", 0.0, 10.0)}, delta_t=5.0
    )
    network.register_subscription("u2", sub)
    network.run_to_quiescence()
    network.cancel_subscription("u2", "q")
    network.run_to_quiescence()
    deployment = network.deployment
    t0 = network.sim.now + 10.0
    for sensor_id, value, offset in (("a", value_a, 0.0), ("b", value_b, gap)):
        placement = next(
            s for s in deployment.sensors if s.sensor_id == sensor_id
        )
        from repro.model import SimpleEvent

        event = SimpleEvent(
            sensor_id, "t", placement.location, value, t0 + offset, seq=0
        )
        network.sim.at(
            event.timestamp,
            lambda e=event, p=placement: network.publish(p.node_id, e),
        )
    network.run_to_quiescence()
    assert not network.delivery.delivered("q")
    assert network.delivery.complex_deliveries["q"] == 0


# ---------------------------------------------------------------------------
# oracle fencing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("method", ["engine", "reference"])
def test_oracle_fences_cancelled_subscriptions(method):
    """Truth with a cancellation == truth over the pre-cancel events,
    in both truth passes — exactly the departed-sensor fence contract."""
    for seed in (0, 5, 11):
        deployment, replay, workload = arena(seed)
        shifted = replay.shifted(REPLAY_START)
        subs = [p.subscription for p in workload]
        cutoff = shifted[len(shifted) // 2].timestamp
        cancelled = {subs[0].sub_id: cutoff, subs[3].sub_id: cutoff}
        fenced = compute_truth(
            subs, deployment, shifted, method=method,
            fences=Fences.build(cancellations=cancelled),
        )
        plain = compute_truth(subs, deployment, shifted, method=method)
        truncated = compute_truth(
            subs,
            deployment,
            [e for e in shifted if e.timestamp <= cutoff],
            method=method,
        )
        for sub in subs:
            if sub.sub_id in cancelled:
                assert fenced[sub.sub_id].triggers == truncated[sub.sub_id].triggers
                assert (
                    fenced[sub.sub_id].participants
                    == truncated[sub.sub_id].participants
                )
                # Fencing only removes truth.
                assert fenced[sub.sub_id].triggers <= plain[sub.sub_id].triggers
            else:
                assert fenced[sub.sub_id].triggers == plain[sub.sub_id].triggers


def test_oracle_engine_equals_reference_with_cancellations():
    for seed in (2, 7):
        deployment, replay, workload = arena(seed)
        shifted = replay.shifted(REPLAY_START)
        subs = [p.subscription for p in workload]
        cutoff = shifted[len(shifted) // 3].timestamp
        cancelled = {subs[1].sub_id: cutoff, subs[6].sub_id: cutoff}
        reference = compute_truth(
            subs, deployment, shifted, method="reference",
            fences=Fences.build(cancellations=cancelled),
        )
        truth = compute_truth(
            subs, deployment, shifted, method="engine",
            fences=Fences.build(cancellations=cancelled),
        )
        for sub_id in truth:
            assert truth[sub_id].triggers == reference[sub_id].triggers, sub_id
            assert (
                truth[sub_id].participants == reference[sub_id].participants
            ), sub_id
