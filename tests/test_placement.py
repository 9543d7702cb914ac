"""The placement subsystem: architecture graph, cost model, compiler.

Three layers of guarantees:

* **architecture graph** — ``NodeSpec`` validation, the tiered
  decoration of the small-scale deployment (same graph, same sensors,
  only ``specs`` differs), and the extended ``Deployment.validate``;
* **compiler** — plans are deterministic closed-form artefacts:
  bit-identical across compilations, never modelled worse than the
  paper heuristic (always a candidate), structurally well-formed
  (rendezvous on the query's Steiner tree, leaf pieces covering every
  sensor), and picklable for the sharded runner;
* **null fence** — ``placement="paper"`` compiles to ``plans=None``
  and registration without a plan is the pre-placement code path
  bit-for-bit, for every approach and both matching engines (the
  hypothesis property below).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.session import Session
from repro.baselines import (
    centralized_approach,
    multijoin_approach,
    naive_approach,
    operator_placement_approach,
)
from repro.core import FSFConfig, filter_split_forward_approach
from repro.metrics.recall import measure_recall
from repro.model import IdentifiedSubscription, SimpleEvent
from repro.network.faults import FaultPlan, LinkFault
from repro.network.network import Network
from repro.network.reliability import ReliabilityConfig
from repro.network.topology import (
    BASE_STATION_SPEC,
    CLOUD_SPEC,
    MOTE_SPEC,
    Deployment,
    NodeSpec,
    add_link,
    small_scale,
    tiered_small_scale,
)
from repro.placement import compile_placement
from repro.sim import Simulator
from repro.workload.program import (
    QueryLifecycleConfig,
    WorkloadProgram,
    execute_program,
)
from repro.workload.scenarios import PLACEMENT
from repro.workload.sensorscope import ChurnConfig, DynamicReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

from deployments import line_deployment, make_network, publish


# ---------------------------------------------------------------------------
# architecture graph
# ---------------------------------------------------------------------------


def test_node_spec_validation():
    with pytest.raises(ValueError, match="unknown tier"):
        NodeSpec("mainframe")
    with pytest.raises(ValueError, match="link_bandwidth"):
        NodeSpec("mote", link_bandwidth=0.0)
    with pytest.raises(ValueError, match="link_bandwidth"):
        NodeSpec("cloud", link_bandwidth=-1.0)


def test_tiered_small_scale_decorates_without_touching_the_topology():
    plain = small_scale()
    tiered = tiered_small_scale()
    assert plain.graph == tiered.graph
    assert plain.sensors == tiered.sensors
    assert plain.group_heads == tiered.group_heads
    assert not plain.specs
    # Every node is assigned; hosts are motes, heads base stations,
    # exactly one cloud uplink on the backbone.
    assert set(tiered.specs) == set(tiered.graph)
    for host in tiered.sensor_nodes:
        assert tiered.spec_of(host) == MOTE_SPEC
    clouds = [n for n, s in tiered.specs.items() if s == CLOUD_SPEC]
    assert len(clouds) == 1
    assert clouds[0] in tiered.relay_nodes
    # Heads are base stations — except one may double as the cloud
    # uplink (the backbone centre outranks the head role).
    for head in set(tiered.group_heads.values()) - set(clouds):
        assert tiered.spec_of(head) == BASE_STATION_SPEC


def test_validate_rejects_broken_graphs():
    base = line_deployment()
    cyclic = Deployment(
        graph={node: list(links) for node, links in base.graph.items()},
        sensors=base.sensors,
        groups=base.groups,
        relay_nodes=base.relay_nodes,
        group_heads=base.group_heads,
        seed=base.seed,
    )
    add_link(cyclic.graph, "u2", "hub")
    with pytest.raises(ValueError, match="acyclic"):
        cyclic.validate()

    missing_host = Deployment(
        graph={node: list(links) for node, links in base.graph.items()},
        sensors=base.sensors,
        groups=base.groups,
        relay_nodes=base.relay_nodes,
        group_heads=base.group_heads,
        seed=base.seed,
    )
    del missing_host.graph["s_c"]
    missing_host.graph["s_b"].remove("s_c")
    with pytest.raises(ValueError, match="hosting nodes missing"):
        missing_host.validate()

    stray_spec = Deployment(
        graph=base.graph,
        sensors=base.sensors,
        groups=base.groups,
        relay_nodes=base.relay_nodes,
        group_heads=base.group_heads,
        seed=base.seed,
        specs={"no_such_node": NodeSpec()},
    )
    with pytest.raises(ValueError, match="unknown nodes"):
        stray_spec.validate()


# ---------------------------------------------------------------------------
# compiler invariants
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def compiled_placement_point():
    compiled = compiled_point(8)
    return compiled.deployment, compiled


def test_compiled_program_carries_plans(compiled_placement_point):
    deployment, compiled = compiled_placement_point
    assert compiled.plans is not None
    assert set(compiled.plans) == {a.sub_id for a in compiled.admissions}
    for admission in compiled.admissions:
        assert compiled.plan_for(admission.sub_id) is compiled.plans[admission.sub_id]


def test_plans_are_structurally_sound(compiled_placement_point):
    deployment, compiled = compiled_placement_point
    host_of = {s.sensor_id: s.node_id for s in deployment.sensors}
    reference = nx.Graph(deployment.graph)
    for admission in compiled.admissions:
        plan = compiled.plans[admission.sub_id]
        sensors = set(admission.subscription.sensor_ids)
        # The rendezvous lies on the query's Steiner tree.
        steiner = {
            node
            for s in sensors
            for node in nx.shortest_path(
                reference, admission.node_id, host_of[s]
            )
        }
        assert plan.rendezvous in steiner
        # Never modelled worse than the paper heuristic.
        assert plan.cost <= plan.paper_cost
        # The hop table's leaf pieces cover every sensor: each sensor's
        # host terminates a piece containing it.
        for sensor_id in sensors:
            host = host_of[sensor_id]
            held = [
                hop for hop in plan.hops
                if hop.node_id == host and sensor_id in hop.sensors
            ]
            terminal = sensor_id in {
                s
                for s in sensors
                if host_of[s] == host
            }
            assert held or terminal


def test_compilation_is_bit_identical(compiled_placement_point):
    deployment, compiled = compiled_placement_point
    program = replace(PLACEMENT, placement="compiled").program(8)
    source = program.source(deployment)
    again = program.with_prefix(8).compile(deployment, source)
    assert again.plans == compiled.plans
    for sub_id, plan in compiled.plans.items():
        other = again.plans[sub_id]
        # Float bit-identity, not approximate equality.
        assert (plan.cost, plan.paper_cost) == (other.cost, other.paper_cost)


def test_plans_survive_pickling(compiled_placement_point):
    deployment, compiled = compiled_placement_point
    for plan in compiled.plans.values():
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        for hop in plan.hops:
            assert clone.next_hops(hop.node_id, frozenset(hop.sensors)) == tuple(
                (neighbor, frozenset(subset)) for neighbor, subset in hop.next
            )


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------
PLANNABLE = [naive_approach, operator_placement_approach, filter_split_forward_approach]


def compiled_point(n, **program_fields):
    """The PLACEMENT scenario's first ``n`` queries under compiled plans."""
    scenario = replace(PLACEMENT, placement="compiled")
    program = replace(scenario.program(n), **program_fields)
    deployment = scenario.deployment()
    return program.with_prefix(n).compile(deployment, program.source(deployment))


def test_compiled_placement_composes_with_faults():
    subs = SubscriptionWorkloadConfig(n_subscriptions=5)
    with pytest.raises(ValueError, match="placement"):
        WorkloadProgram(subscriptions=subs, placement="optimal")
    # Faults and the reliability layer are no longer refused: a re-offered
    # piece carries its plan.  Under 5% link loss nothing a compiled run
    # delivers lies outside the oracle's participants.
    lossy = compiled_point(
        30,
        faults=FaultPlan(default=LinkFault(drop=0.05)),
        reliability=ReliabilityConfig(),
    )
    truths = lossy.truth()
    for approach in PLANNABLE:
        execution = execute_program(lossy, approach())
        assert execution.final.dropped_messages > 0
        report = measure_recall(truths, execution.session.network.delivery)
        assert report.delivered_events > 0
        assert report.false_positive_events == 0


def test_compiled_placement_survives_churn():
    """Compiled plans under sensor churn and mid-run admissions: exact.

    A plan replaces only the split, so a departure's retraction fences
    the sensor's stored events at every broker, planned pieces included,
    and a rejoin's re-flood lifts the fence.  A broker that kept a
    departed sensor's events delivers 3 false-positive events here.
    """
    churned = compiled_point(
        100,
        dynamic=DynamicReplayConfig(days=2, rounds_per_day=18, day_seconds=240.0),
        churn=ChurnConfig(cycle_fraction=0.25),
        lifecycle=QueryLifecycleConfig(admit_rate=0.5, hold=60.0, max_admissions=60),
    )
    joins: dict[str, float] = {}
    for t, sensor_id, kind in churned.churn.transitions():
        if kind == "join":
            joins.setdefault(sensor_id, t)
    # Non-vacuous: plans route pieces over sensors that leave and rejoin.
    assert any(
        set(hop.sensors) & joins.keys()
        for plan in churned.plans.values()
        for hop in plan.hops
    )
    assert churned.scheduled
    truths = churned.truth()
    exact_fsf = filter_split_forward_approach(FSFConfig(exact_filtering=True))
    for approach in (naive_approach(), operator_placement_approach(), exact_fsf):
        delivery = execute_program(churned, approach).session.network.delivery
        report = measure_recall(truths, delivery)
        assert report.true_instances > 0
        assert report.false_positive_events == 0
        assert report.recall == 1.0
        # ... and delivered events a sensor published after its rejoin.
        assert any(
            event.sensor_id in joins and event.timestamp >= joins[event.sensor_id]
            for sub_id in truths
            for event in delivery.delivered(sub_id).values()
        )


def planned_query():
    deployment = line_deployment()
    sub = IdentifiedSubscription.from_ranges(
        "q0", {"a": ("t", 0.0, 10.0), "b": ("t", 0.0, 10.0)}, delta_t=5.0
    )
    plans = compile_placement(
        deployment,
        [type("Adm", (), {"sub_id": "q0", "node_id": "u2", "subscription": sub})()],
        [],
    )
    return deployment, sub, plans["q0"]


def test_unplannable_approaches_refuse_plans():
    deployment, sub, plan = planned_query()
    for approach in (centralized_approach(), multijoin_approach()):
        session = Session.create(approach=approach, deployment=deployment)
        with pytest.raises(ValueError, match="does not execute compiled placement"):
            session.submit(sub, at="u2", plan=plan)


# ---------------------------------------------------------------------------
# the planned mark lives and dies with its record
# ---------------------------------------------------------------------------


def planned_marks(session) -> list[tuple[str, str, frozenset]]:
    return [
        (node.node_id, origin, group.planned)
        for node in session.network.nodes.values()
        for origin, store in node.stores.items()
        for group in store.streams.values()
        if group.planned
    ]


@pytest.mark.parametrize("approach", PLANNABLE)
def test_no_planned_mark_survives_cancellation_or_a_crash(approach):
    deployment, sub, plan = planned_query()
    session = Session.create(approach=approach(), deployment=deployment)
    handle = session.submit(sub, at="u2", plan=plan)
    session.drain()
    assert ("hub", "u1", {"q0[a,b]"}) in planned_marks(session)
    handle.cancel()
    session.drain()
    assert planned_marks(session) == []
    assert not any(hasattr(n, "_planned_ops") for n in session.network.nodes.values())
    session.submit(sub, at="u2", plan=plan)
    session.drain()
    assert ("hub", "u1", {"q0[a,b]"}) in planned_marks(session)
    for node in session.network.nodes.values():
        node.crash()
    assert planned_marks(session) == []


@pytest.mark.parametrize("approach", PLANNABLE)
def test_unplanned_resubmit_does_not_inherit_the_fold_back_permission(approach):
    """Only a plan-adopted record may route an event back to where it
    came from.  After the planned ``q0`` is cancelled, an *unplanned*
    ``q0`` stores the same op ids; readings of its sensors reaching the
    hub from the operator's own origin must not bounce back there."""
    deployment, sub, plan = planned_query()
    session = Session.create(approach=approach(), deployment=deployment)
    session.submit(sub, at="u2", plan=plan).cancel()
    session.drain()
    session.submit(sub, at="u2")
    session.drain()
    network = session.network
    hub = network.nodes["hub"]
    assert [r.operator.op_id for r in hub.stores["u1"].records()] == ["q0[a,b]"]
    before = network.meter.event_units
    now = network.sim.now
    for seq, sensor_id in enumerate("ab"):
        placement = network.deployment.sensor_by_id(sensor_id)
        reading = SimpleEvent(
            sensor_id, "t", placement.location, 5.0, now + 0.1 * seq, seq
        )
        hub.handle_event(reading, "u1", ())
    session.drain()
    assert network.delivery.delivered("q0") == {}  # nothing travelled to u2
    assert network.meter.event_units == before


# ---------------------------------------------------------------------------
# plans ride the reliability layer: a re-offered piece carries its plan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", PLANNABLE)
def test_lossless_reliability_changes_nothing_a_compiled_run_delivers(approach):
    def observed(compiled):
        execution = execute_program(compiled, approach())
        delivery = execution.session.network.delivery
        setup = execution.after_setup.minus(execution.after_advertisements)
        replay = execution.final.minus(execution.after_setup)
        return (
            {s: sorted(delivery.delivered(s)) for s in delivery.subscriptions()},
            dict(delivery.complex_deliveries),
            setup.subscription_units,
            replay.event_units,
        )

    plain = observed(compiled_point(20))
    assert any(plain[0].values())
    assert observed(compiled_point(20, reliability=ReliabilityConfig())) == plain


@pytest.mark.parametrize("approach", PLANNABLE)
def test_recovered_broker_readopts_its_pieces_planned(approach):
    """q00017's plan folds a branch back along its trunk: the rendezvous
    ``s8_ws`` hosts ``d8_ws`` and pulls the two ``d7`` streams in through
    ``s8_rh``, the neighbour its whole piece came from.  Crashed and
    recovered, it re-learns the piece from that neighbour's next refresh
    round — still *planned*, or a match the ``d7`` readings complete
    could not travel back to where they arrived from."""
    compiled = compiled_point(20)
    admission = next(a for a in compiled.admissions if a.sub_id == "q00017")
    session = Session.create(
        approach=approach(),
        deployment=compiled.deployment,
        reliability=ReliabilityConfig(),
    )
    handle = session.submit(
        admission.subscription, at=admission.node_id, plan=compiled.plans["q00017"]
    )
    session.drain()
    network = session.network
    host = network.nodes["s8_ws"]

    def held():
        return [
            (origin, record.operator.op_id, record.planned)
            for origin, store in host.stores.items()
            for record in store.records()
        ]

    assert held() == [("s8_rh", "q00017[d7_rh,d7_wd,d8_ws]", True)]
    network.crash_node("s8_ws")
    network.recover_node("s8_ws")
    session.drain()
    assert held() == []
    network.schedule_refresh([(session.now + 1.0, 1)])
    session.drain()
    assert held() == [("s8_rh", "q00017[d7_rh,d7_wd,d8_ws]", True)]
    t0 = session.now + 10.0
    session.ingest("d8_ws", 5.0, timestamp=t0)
    session.ingest("d7_rh", 66.7, timestamp=t0 + 1.0)
    session.ingest("d7_wd", 282.0, timestamp=t0 + 2.0)
    session.drain()
    assert [e.sensor_id for e in handle.events()] == ["d8_ws", "d7_rh", "d7_wd"]


# ---------------------------------------------------------------------------
# the null-plan fence (hypothesis property)
# ---------------------------------------------------------------------------

APPROACHES = {
    "naive": naive_approach,
    "operator_placement": operator_placement_approach,
    "multijoin": multijoin_approach,
    "centralized": centralized_approach,
    "fsf": lambda: filter_split_forward_approach(FSFConfig()),
}


def _run_registrations(approach_key, subs, raw_events, with_kwarg):
    deployment = line_deployment()
    network = Network(deployment, Simulator(seed=0))
    approach = APPROACHES[approach_key]()
    approach.populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    for sub in subs:
        if with_kwarg:
            network.register_subscription("u2", sub, plan=None)
        else:
            network.register_subscription("u2", sub)
    network.run_to_quiescence()
    t0 = network.sim.now + 10.0
    for i, (sensor, value, dt) in enumerate(raw_events):
        publish(network, sensor, value, ts=t0 + dt, seq=i)
    network.run_to_quiescence()
    delivered = {
        sub.sub_id: sorted(network.delivery.delivered(sub.sub_id))
        for sub in subs
    }
    return network.meter.snapshot(), delivered


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    approach_key=st.sampled_from(sorted(APPROACHES)),
    sensors=st.sets(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
    raw_events=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(0, 12, allow_nan=False),
            st.floats(0, 30, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_null_plan_is_the_legacy_registration_path(
    approach_key, sensors, raw_events
):
    """``plan=None`` must be byte-identical to pre-placement submit.

    Same traffic snapshot, same deliveries, for every approach — the
    machine check that the placement subsystem is invisible until a
    plan is actually passed.
    """
    subs = [
        IdentifiedSubscription.from_ranges(
            "q0", {s: ("t", 0.0, 8.0) for s in sorted(sensors)}, delta_t=5.0
        )
    ]
    legacy = _run_registrations(approach_key, subs, raw_events, False)
    fenced = _run_registrations(approach_key, subs, raw_events, True)
    assert legacy == fenced


def test_paper_placement_compiles_to_null_plans():
    """placement="paper" (and the default) never materialises plans."""
    deployment = PLACEMENT.deployment()
    assert PLACEMENT.placement == "paper"  # the scenario's default lane
    paper = WorkloadProgram(
        subscriptions=PLACEMENT.workload_config(6),
        replay=PLACEMENT.replay,
        placement="paper",
    )
    source = paper.source(deployment)
    compiled = paper.with_prefix(6).compile(deployment, source)
    assert compiled.plans is None
    assert compiled.plan_for("q00000") is None
