"""The approximate answer lane end to end on the network layer.

* certified answers: the lane's ``[lower, upper]`` bracket contains
  the (quantized) truth, for digests merged across a real push tree;
* suppression by omission: sketch-eligible subscriptions never enter
  the exact pipeline, so the only traffic is lane traffic;
* churn fences: the lane listens to each broker's event store, so a
  departed sensor's contributions age out of broker digests by
  ``EventStore.fence_sensor`` itself — stragglers at or before the
  fence refused, summary restarted from empty on rejoin;
* gates: every incompatible combination is rejected at construction,
  never discovered mid-run;
* the null fence: ``sketch=None`` (the default) is bit-identical to a
  network built without the argument, for every approach.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.api.session import Session
from repro.baselines import (
    centralized_approach,
    multijoin_approach,
    naive_approach,
    operator_placement_approach,
)
from repro.core import filter_split_forward_approach
from repro.model import IdentifiedSubscription, SimpleEvent
from repro.model.intervals import Interval
from repro.model.locations import RectRegion
from repro.model.subscriptions import AbstractSubscription
from repro.network.faults import FaultPlan, LinkFault
from repro.network.network import Network
from repro.network.reliability import ReliabilityConfig
from repro.sim import Simulator
from repro.sketches import QDigest, SketchConfig
from repro.workload.program import WorkloadProgram, execute_program
from repro.workload.scenarios import SKETCHES
from repro.workload.subscriptions import SubscriptionWorkloadConfig

from deployments import line_deployment, publish

APPROACHES = {
    "naive": naive_approach,
    "operator_placement": operator_placement_approach,
    "multijoin": multijoin_approach,
    "fsf": filter_split_forward_approach,
    "centralized": centralized_approach,
}

CFG = SketchConfig(
    k=8, levels=6, push_interval=50.0, domains=(("t", -1000.0, 1000.0),)
)
ALL_SENSORS = RectRegion(Interval(-1.0, 3.0), Interval(-1.0, 1.0))


def approx_network(cfg: SketchConfig = CFG) -> Network:
    network = Network(
        line_deployment(),
        Simulator(seed=0),
        sketch=cfg,
    )
    naive_approach().populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    return network


def range_sub(sub_id: str, lo: float, hi: float) -> AbstractSubscription:
    """A single-slot range filter over every line-deployment sensor."""
    return AbstractSubscription.from_ranges(
        sub_id, {"t": (lo, hi)}, ALL_SENSORS, delta_t=5.0
    )


# ---------------------------------------------------------------------------
# certified answers
# ---------------------------------------------------------------------------
def test_merged_answer_brackets_quantized_truth():
    network = approx_network()
    network.register_subscription("u2", range_sub("q0", 0.0, 8.0))
    network.run_to_quiescence()
    t0 = network.sim.now + 1.0
    values = [
        ("a", 1.0), ("a", 4.0), ("a", 100.0),
        ("b", 7.5), ("b", -3.0), ("b", 2.0),
        ("c", 8.0), ("c", 0.0), ("c", 900.0),
    ]
    for i, (sensor, value) in enumerate(values):
        publish(network, sensor, value, ts=t0 + i, seq=i)
    network.schedule_sketch_rounds([(t0 + 100.0, 1)])
    network.run_to_quiescence()

    answer = network.sketches.answer_for("q0")
    assert answer is not None
    assert answer.sensors == frozenset({"a", "b", "c"})
    assert answer.n == len(values)
    summary = answer.summary
    c_lo, c_hi = summary.query_cells(0.0, 8.0)
    truth = sum(
        1 for _, v in values if c_lo <= summary.cell(v) <= c_hi
    )
    assert answer.lower <= truth <= answer.upper
    assert abs(answer.estimate - truth) <= answer.error_bound
    assert answer.eps == summary.levels / summary.k


def test_answers_accumulate_across_rounds():
    network = approx_network()
    network.register_subscription("u2", range_sub("q0", 0.0, 10.0))
    network.run_to_quiescence()
    t0 = network.sim.now + 1.0
    publish(network, "a", 5.0, ts=t0, seq=0)
    network.schedule_sketch_rounds([(t0 + 10.0, 1)])
    network.run_to_quiescence()
    first = network.sketches.answer_for("q0")
    assert first.n == 1 and first.round_no == 1

    t1 = network.sim.now + 1.0
    publish(network, "b", 6.0, ts=t1, seq=1)
    publish(network, "c", 7.0, ts=t1 + 1.0, seq=2)
    network.schedule_sketch_rounds([(t1 + 10.0, 2)])
    network.run_to_quiescence()
    second = network.sketches.answer_for("q0")
    # Summaries are cumulative; the new round replaces the answer.
    assert second.n == 3 and second.round_no == 2
    assert second.lower <= 3 <= second.upper


def test_shared_group_single_tree():
    """Same (home, attribute, sensor set) => one push tree, two answers."""
    network = approx_network()
    network.register_subscription("u2", range_sub("q0", 0.0, 8.0))
    network.run_to_quiescence()
    setup_once = network.meter.snapshot().sketch_units
    network.register_subscription("u2", range_sub("q1", 2.0, 5.0))
    network.run_to_quiescence()
    # The second subscription joined the existing group: no new flood.
    assert network.meter.snapshot().sketch_units == setup_once
    t0 = network.sim.now + 1.0
    publish(network, "a", 3.0, ts=t0, seq=0)
    network.schedule_sketch_rounds([(t0 + 10.0, 1)])
    network.run_to_quiescence()
    answers = network.sketches.query_answers()
    assert set(answers) == {"q0", "q1"}
    assert answers["q0"].group_id == answers["q1"].group_id


# ---------------------------------------------------------------------------
# suppression by omission
# ---------------------------------------------------------------------------
def test_eligible_subscription_bypasses_exact_pipeline():
    network = approx_network()
    network.register_subscription("u2", range_sub("q0", 0.0, 8.0))
    network.run_to_quiescence()
    home = network.nodes["u2"]
    assert home.local_subscriptions == []
    # No operator flood anywhere: only lane traffic on the wire.
    snap = network.meter.snapshot()
    assert snap.sketch_units == snap.subscription_units + snap.event_units
    t0 = network.sim.now + 1.0
    for i, sensor in enumerate(("a", "b", "c")):
        publish(network, sensor, 4.0, ts=t0 + i, seq=i)
    network.schedule_sketch_rounds([(t0 + 50.0, 1)])
    network.run_to_quiescence()
    # Raw readings were never forwarded; nothing was delivered exactly.
    snap = network.meter.snapshot()
    assert snap.sketch_units == snap.subscription_units + snap.event_units
    assert network.delivery.delivered("q0") == {}


def test_ineligible_subscription_keeps_exact_pipeline():
    """Multi-slot queries stay exact even in approximate mode."""
    network = approx_network()
    sub = IdentifiedSubscription.from_ranges(
        "q0", {"a": ("t", 0.0, 8.0), "b": ("t", 0.0, 8.0)}, delta_t=5.0
    )
    network.register_subscription("u2", sub)
    network.run_to_quiescence()
    assert network.nodes["u2"].local_subscriptions
    assert network.sketches.answer_for("q0") is None


def test_push_units_scale_with_digest_size():
    cfg = SketchConfig(
        k=64, levels=10, push_interval=50.0, buckets_per_unit=4,
        domains=(("t", -1000.0, 1000.0),),
    )
    network = approx_network(cfg)
    network.register_subscription("u2", range_sub("q0", -1000.0, 1000.0))
    network.run_to_quiescence()
    before = network.meter.snapshot()
    t0 = network.sim.now + 1.0
    for i in range(60):
        publish(network, "c", float((i * 31) % 997) - 400.0, ts=t0 + i * 0.1, seq=i)
    network.schedule_sketch_rounds([(t0 + 30.0, 1)])
    network.run_to_quiescence()
    pushed = network.meter.snapshot().minus(before)
    # 60 distinct-ish readings from the farthest sensor: the digest
    # crosses 5 hops but bills a fraction of the 60 * 5 raw units.
    assert 0 < pushed.event_units < 60 * 5
    assert pushed.event_units == pushed.sketch_units


# ---------------------------------------------------------------------------
# churn fences
# ---------------------------------------------------------------------------
def test_departed_sensor_ages_out_of_answers():
    network = approx_network()
    network.register_subscription("u2", range_sub("q0", 0.0, 10.0))
    network.run_to_quiescence()
    t0 = network.sim.now + 1.0
    publish(network, "a", 5.0, ts=t0, seq=0)
    publish(network, "b", 6.0, ts=t0 + 1.0, seq=1)
    network.schedule_sketch_rounds([(t0 + 10.0, 1)])
    network.run_to_quiescence()
    assert network.sketches.answer_for("q0").n == 2

    # Sensor a departs: its summary drops at the hosting broker and the
    # next round's merged answer no longer counts it.
    network.sim.at(
        network.sim.now + 1.0, lambda: network.detach_sensor("s_a", "a")
    )
    t1 = network.sim.now + 5.0
    network.schedule_sketch_rounds([(t1 + 10.0, 2)])
    network.run_to_quiescence()
    answer = network.sketches.answer_for("q0")
    assert answer.round_no == 2
    assert answer.n == 1  # only b's reading survives


def test_fence_refuses_stragglers_until_rejoin():
    """The lane counts what the host's event store accepts, so the
    store's churn fence is the lane's: no copy to keep equal."""
    network = approx_network()
    host = network.nodes["s_a"]
    placement = network.deployment.sensor_by_id("a")

    def reading(ts, seq):
        return SimpleEvent("a", "t", placement.location, 1.0, ts, seq)

    def hosted():
        return network.sketches._hosted.get("s_a", {}).get("a")

    t0 = network.sim.now + 10.0
    network.sim.at(t0, lambda: host.publish(reading(t0, 0)))
    network.sim.at(t0 + 10.0, lambda: host.detach_sensor("a"))
    network.run_to_quiescence()
    assert hosted() is None  # the fence dropped the summary
    # Stragglers stamped at or before the fence are refused...
    host.publish(reading(t0 + 10.0, 1))
    host.publish(reading(t0 + 5.0, 2))
    assert hosted() is None
    # ...until the rejoin: the summary restarts from empty.
    host.attach_sensor(placement.advertisement())
    host.publish(reading(t0 + 12.0, 3))
    network.run_to_quiescence()
    assert hosted().folded().n == 1


def test_relay_hosts_no_summary_of_a_remote_sensor():
    """Only the broker a sensor is attached to counts its readings: a
    relay stores the forwarded copy and creates no hosted summary."""
    network = approx_network()
    joined = IdentifiedSubscription.from_ranges(
        "j", {"a": ("t", 0.0, 10.0), "b": ("t", 0.0, 10.0)}, delta_t=5.0
    )
    network.register_subscription("u2", joined)  # two slots: stays exact
    network.run_to_quiescence()
    t0 = network.sim.now + 1.0
    event_b = publish(network, "b", 5.0, ts=t0, seq=0)
    publish(network, "a", 5.0, ts=t0 + 1.0, seq=1)
    network.run_to_quiescence()
    assert event_b.key in network.nodes["s_a"].store  # relayed toward u2
    assert {
        node_id: sorted(hosted)
        for node_id, hosted in network.sketches._hosted.items()
    } == {"s_a": ["a"], "s_b": ["b"]}


def test_crash_leaves_a_fresh_listener_on_the_fresh_store():
    network = approx_network()
    host = network.nodes["s_a"]
    crashed_store = host.store
    network.crash_node("s_a")
    network.sketches._hosted.clear()
    network.recover_node("s_a")
    assert host.store is not crashed_store
    publish(network, "a", 5.0, ts=network.sim.now + 1.0)
    network.run_to_quiescence()
    assert network.sketches._hosted["s_a"]["a"].folded().n == 1


def test_rejoined_sensor_contributes_fresh_readings():
    network = approx_network()
    network.register_subscription("u2", range_sub("q0", 0.0, 10.0))
    network.run_to_quiescence()
    t0 = network.sim.now + 1.0
    publish(network, "a", 5.0, ts=t0, seq=0)
    placement = network.deployment.sensor_by_id("a")
    network.sim.at(t0 + 2.0, lambda: network.detach_sensor("s_a", "a"))
    network.sim.at(t0 + 4.0, lambda: network.attach_sensor("s_a", placement))
    publish(network, "a", 6.0, ts=t0 + 6.0, seq=1)
    network.schedule_sketch_rounds([(t0 + 20.0, 1)])
    network.run_to_quiescence()
    answer = network.sketches.answer_for("q0")
    # The pre-departure reading is gone; the post-rejoin one counts.
    assert answer.n == 1


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------
def test_construction_gates():
    deployment = line_deployment()
    with pytest.raises(ValueError, match="unreliable"):
        Network(
            deployment,
            Simulator(seed=0),
            sketch=CFG,
            faults=FaultPlan(default=LinkFault(drop=0.1), seed=1),
        )
    with pytest.raises(ValueError, match="unreliable"):
        Network(
            deployment,
            Simulator(seed=0),
            sketch=CFG,
            reliability=ReliabilityConfig(),
        )


def test_plan_and_round_gates():
    network = approx_network()
    with pytest.raises(ValueError, match="plan"):
        network.register_subscription(
            "u2", range_sub("q0", 0.0, 8.0), plan=object()
        )
    exact = Network(line_deployment(), Simulator(seed=0))
    with pytest.raises(ValueError, match="SketchConfig"):
        exact.schedule_sketch_rounds([(10.0, 1)])


def test_session_rejects_unsupported_approach():
    with pytest.raises(ValueError, match="CentralizedNode"):
        Session.create(
            approach="centralized",
            deployment=line_deployment(),
            sketch=SketchConfig(),
        )


def test_node_class_refuses_the_lane_without_a_session():
    """The refusal is the node class's: a pre-built approximate network
    cannot be populated with nodes that would leave the lane idle and
    answer exactly (``approx_answers() == {}``) without saying so."""
    network = Network(
        line_deployment(), Simulator(seed=0), sketch=SketchConfig()
    )
    with pytest.raises(ValueError, match="approximate answer lane"):
        centralized_approach().populate(network)
    assert network.nodes == {}


def test_program_gates():
    """The lane rule is Network's: a program reaches it when it
    executes, and only sketch × compiled (which check_plan cannot see
    for a query without a plan) is refused at construction."""
    subs = SubscriptionWorkloadConfig(n_subscriptions=4)
    deployment = line_deployment()
    refused = [
        (
            "lossless",
            dict(
                sketch=SketchConfig(),
                faults=FaultPlan(default=LinkFault(drop=0.1), seed=1),
            ),
        ),
        ("lossless", dict(sketch=SketchConfig(), reliability=ReliabilityConfig())),
    ]
    for message, fields in refused:
        program = WorkloadProgram(subscriptions=subs, **fields)
        with pytest.raises(ValueError, match=message):
            execute_program(program.compile(deployment), "fsf")
    with pytest.raises(ValueError, match="placement"):
        WorkloadProgram(
            subscriptions=subs,
            sketch=SketchConfig(),
            placement="compiled",
        )


def test_sketches_scenario_is_registered():
    assert SKETCHES.sketch is None  # the frontier lane
    assert SKETCHES.program(4).sketch is None


# ---------------------------------------------------------------------------
# the null fence: exact mode is the legacy path, bit for bit
# ---------------------------------------------------------------------------
def _run_exact(approach_key, raw_events, with_kwarg):
    network = Network(
        line_deployment(),
        Simulator(seed=0),
        **({"sketch": None} if with_kwarg else {}),
    )
    APPROACHES[approach_key]().populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    sub = IdentifiedSubscription.from_ranges(
        "q0",
        {s: ("t", 0.0, 8.0) for s in ("a", "b", "c")},
        delta_t=5.0,
    )
    network.register_subscription("u2", sub)
    network.run_to_quiescence()
    t0 = network.sim.now + 10.0
    for i, (sensor, value, dt) in enumerate(raw_events):
        publish(network, sensor, value, ts=t0 + dt, seq=i)
    network.run_to_quiescence()
    assert network.sketches is None
    return (
        network.meter.snapshot(),
        sorted(network.delivery.delivered("q0")),
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    approach_key=st.sampled_from(sorted(APPROACHES)),
    raw_events=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(0, 12, allow_nan=False),
            st.floats(0, 30, allow_nan=False),
        ),
        max_size=8,
    ),
)
# Eight readings, the last of which (seq 7) completes a window: a match
# late in the feed, not only the first one, rides the shadowed engine.
@example(
    approach_key="naive",
    raw_events=[
        ("a", 4.0, 0.0), ("b", 4.0, 1.0), ("c", 4.0, 2.0),
        ("a", 4.0, 10.0), ("b", 4.0, 11.0),
        ("a", 4.0, 20.0), ("b", 4.0, 21.0), ("c", 4.0, 22.0),
    ],
)
def test_exact_mode_is_the_legacy_path(approach_key, raw_events):
    """``sketch=None`` must be byte-identical to omitting it.

    Same traffic snapshot, same deliveries, for every approach — the
    machine check that the sketch subsystem is invisible until a
    sketch config is given.
    """
    legacy = _run_exact(approach_key, raw_events, False)
    fenced = _run_exact(approach_key, raw_events, True)
    assert legacy == fenced


# ---------------------------------------------------------------------------
# the session facade
# ---------------------------------------------------------------------------
def test_session_approx_answers():
    exact = Session.create(approach="naive", deployment=line_deployment())
    assert exact.approx_answers() == {}

    session = Session.create(
        approach="naive",
        deployment=line_deployment(),
        sketch=CFG,
    )
    session.network.register_subscription("u2", range_sub("q0", 0.0, 8.0))
    session.network.run_to_quiescence()
    t0 = session.network.sim.now + 1.0
    publish(session.network, "a", 4.0, ts=t0, seq=0)
    session.network.schedule_sketch_rounds([(t0 + 10.0, 1)])
    session.drain()
    answers = session.approx_answers()
    assert set(answers) == {"q0"}
    assert answers["q0"].lower <= 1 <= answers["q0"].upper
    assert isinstance(answers["q0"].summary, QDigest)
