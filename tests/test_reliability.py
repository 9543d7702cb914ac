"""The opt-in reliability layer: acks, retransmission, soft state.

Covers the four behaviours the fault tentpole promises:

* **retransmission** — control traffic crosses lossy links anyway, and
  the extra copies are billed to ``retransmission_units``;
* **bounded retries** — a dead link abandons transfers after
  ``max_retries`` (quiescence always exists), and the backoff schedule
  provably never fires in the past (hypothesis property);
* **duplicates stay invisible** — re-delivered event copies never
  double-count a match (hypothesis property over seeded arenas);
* **soft state** — remote advertisements expire after missed refresh
  rounds, recovered brokers re-learn everything within one round, and a
  correlated base-station outage recovers to recall 1.0 after the
  refresh interval (the acceptance criterion, run at figure fidelity).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from deployments import line_deployment

from repro.experiments.runner import REPLAY_START, run_series
from repro.model import Advertisement, Location
from repro.network.faults import FaultPlan, LinkFault, OutageWindow
from repro.network.messages import AdvertisementMessage, EventMessage
from repro.network.network import Network
from repro.network.reliability import ReliabilityConfig, _uniform_draws
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.sim import Simulator
from repro.workload.scenarios import Scenario
from repro.workload.sensorscope import ReplayConfig, build_replay
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)

_property_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="ack_timeout"):
            ReliabilityConfig(ack_timeout=0.0)
        with pytest.raises(ValueError, match="ack_timeout"):
            ReliabilityConfig(ack_timeout=float("inf"))
        with pytest.raises(ValueError, match="backoff"):
            ReliabilityConfig(backoff=0.5)
        with pytest.raises(ValueError, match="backoff"):
            ReliabilityConfig(backoff=float("inf"))
        with pytest.raises(ValueError, match="max_retries"):
            ReliabilityConfig(max_retries=-1)
        with pytest.raises(ValueError, match="refresh_interval"):
            ReliabilityConfig(refresh_interval=float("nan"))
        with pytest.raises(ValueError, match="refresh_interval"):
            ReliabilityConfig(refresh_interval=float("inf"))
        with pytest.raises(ValueError, match="expiry_rounds"):
            ReliabilityConfig(expiry_rounds=0)

    @given(
        ack_timeout=st.floats(min_value=1e-3, max_value=10.0),
        backoff=st.floats(min_value=1.0, max_value=5.0),
        attempts=st.integers(min_value=0, max_value=9),
    )
    @_property_settings
    def test_retries_never_schedule_in_the_past(
        self, ack_timeout, backoff, attempts
    ):
        """The backoff schedule is positive and non-decreasing for any
        valid config — a retransmission timer can never land before the
        attempt that armed it."""
        cfg = ReliabilityConfig(ack_timeout=ack_timeout, backoff=backoff)
        delays = [cfg.retry_delay(k) for k in range(attempts + 1)]
        assert all(d > 0 for d in delays)
        assert delays == sorted(delays)


def _flooded_network(plan: FaultPlan, reliability=None) -> Network:
    network = Network(
        line_deployment(),
        Simulator(seed=0),
        faults=plan,
        reliability=reliability,
    )
    all_approaches()["naive"].populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    return network


class TestAckedTransfers:
    def test_retransmission_carries_control_over_a_lossy_link(self):
        """A 50% link cannot stop the advertisement flood once acks and
        retransmissions are on — and without them, it does."""
        plan = FaultPlan(
            links=(("s_a", "hub", LinkFault(drop=0.5)),), seed=11
        )
        reliable = _flooded_network(plan, ReliabilityConfig())
        for sensor_id in ("a", "b", "c"):
            assert reliable.nodes["u2"].ads.get(sensor_id) is not None
        snap = reliable.meter.snapshot()
        assert snap.retransmission_units > 0
        assert snap.dropped_messages > 0

        best_effort = _flooded_network(plan)
        lost = [
            sensor_id
            for sensor_id in ("a", "b", "c")
            if best_effort.nodes["u2"].ads.get(sensor_id) is None
        ]
        assert lost, "every flood survived a 50% link without retries?"
        assert best_effort.meter.snapshot().retransmission_units == 0

    def test_dead_link_abandons_after_bounded_retries(self):
        """drop=1.0 still quiesces: each transfer is attempted exactly
        ``max_retries + 1`` times, then abandoned."""
        cfg = ReliabilityConfig(max_retries=3)
        plan = FaultPlan(links=(("hub", "u1", LinkFault(drop=1.0)),), seed=2)
        network = _flooded_network(plan, cfg)
        # Nothing crossed the dead link: the user side never learns ads.
        assert network.nodes["u1"].ads.get("a") is None
        assert network.nodes["u2"].ads.get("a") is None
        transport = network.transport
        assert transport is not None
        assert transport.abandoned_transfers == 3  # one per advertisement
        # Each abandoned ad paid max_retries retransmissions of 1 unit.
        snap = network.meter.snapshot()
        assert snap.retransmission_units == 3 * cfg.max_retries
        assert transport.live_transfers == 0  # no timers or transfers leak

    def test_late_copy_of_an_ended_transfer_is_not_delivered_again(self):
        """A 1.3 s round trip outlives the 1.0 s ack timeout: the
        retransmitted copy lands after the first ack ended the transfer
        and must stop at the transport (at-most-once by transfer)."""
        network = Network(
            build_deployment(24, 3),
            Simulator(seed=0),
            faults=FaultPlan(default=LinkFault(delay=0.6)),
            reliability=ReliabilityConfig(),
        )
        all_approaches()["naive"].populate(network)
        arrivals = []

        class Recorder:
            def receive(self, message, origin):
                arrivals.append((network.sim.now, origin))

        network.nodes["r1"] = Recorder()
        message = AdvertisementMessage(Advertisement("d", "t", Location(0, 0)))
        network.send("r0", "r1", message)
        network.run_to_quiescence()
        assert arrivals == [(pytest.approx(0.65), "r0")]
        assert network.meter.snapshot().retransmission_units == 1
        assert network.transport.live_transfers == 0

    def test_nothing_per_transfer_survives_crashes_and_a_drain(self):
        """Brokers crash with copies of their transfers in flight, over
        lossy links; once the agenda drains the transport holds no
        transfer, however each one ended."""
        deployment, replay, workload = _static_arena(3)
        network = Network(
            deployment,
            Simulator(seed=3),
            faults=FaultPlan(default=LinkFault(drop=0.2), seed=5),
            reliability=ReliabilityConfig(),
        )
        all_approaches()["naive"].populate(network)
        network.attach_all_sensors()
        network.run_to_quiescence()
        for placed in workload:
            network.register_subscription(placed.node_id, placed.subscription)
        abandoned = 0
        for epoch, victim in enumerate(sorted(network.nodes)[:6], start=1):
            start = network.sim.now + 1.0
            network.schedule_refresh([(start, epoch)])
            network.sim.run(until=start + 0.02)  # copies are on the wire
            live = network.transport.live_transfers
            network.crash_node(victim)
            abandoned += live - network.transport.live_transfers
            network.sim.run(until=start + 0.5)
            network.recover_node(victim)
        assert abandoned > 0, "no crash caught a transfer in flight"
        network.run_to_quiescence()
        assert network.transport.live_transfers == 0

    def test_block_reads_of_the_fault_stream_equal_scalar_draws(self):
        """What lets the transport read its uniform draws in blocks."""
        scalar = Simulator(seed=9).rng("faults:97")
        blocks = _uniform_draws(Simulator(seed=9).rng("faults:97"))
        assert [next(blocks) for _ in range(1_500)] == [
            float(scalar.random()) for _ in range(1_500)
        ]

    def test_ack_traffic_is_free(self):
        """A fault-free reliable flood meters exactly the same units as
        the best-effort flood — acks and timers add no accounting."""
        reliable = _flooded_network(FaultPlan.none(), ReliabilityConfig())
        baseline = _flooded_network(FaultPlan.none())
        assert reliable.meter.snapshot() == baseline.meter.snapshot()


# ---------------------------------------------------------------------------
# duplicate invisibility + convergence properties
# ---------------------------------------------------------------------------
def _static_arena(seed: int):
    deployment = build_deployment(14, 2, seed=seed)
    replay = build_replay(deployment, ReplayConfig(rounds=6, seed=seed * 7 + 1))
    workload = generate_subscriptions(
        deployment,
        replay.medians,
        SubscriptionWorkloadConfig(
            n_subscriptions=5, attrs_min=2, attrs_max=4, seed=seed
        ),
        spreads=replay.spreads,
    )
    return deployment, replay, workload


def _run_arena(deployment, replay, workload, reliability=None) -> Network:
    network = Network(
        deployment, Simulator(seed=deployment.seed), reliability=reliability
    )
    all_approaches()["naive"].populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    for placed in workload:
        network.register_subscription(placed.node_id, placed.subscription)
        network.run_to_quiescence()
    shifted = replay.shifted(REPLAY_START)
    node_of = {s.sensor_id: s.node_id for s in deployment.sensors}
    network.sim.schedule_timeline(
        (e.timestamp, lambda e=e: network.publish(node_of[e.sensor_id], e))
        for e in shifted
    )
    network.run_to_quiescence()
    return network


def _delivery_state(network: Network):
    return (
        {
            sub_id: set(network.delivery.delivered(sub_id))
            for sub_id in network.delivery.subscriptions()
        },
        dict(network.delivery.complex_deliveries),
    )


@given(seed=st.integers(min_value=0, max_value=100_000))
@_property_settings
def test_duplicated_deliveries_never_double_count(seed):
    """Re-delivering every replayed event to every subscriber host (the
    worst duplication an at-least-once wire could produce) changes
    nothing: no delivery is re-logged, no complex match re-counted."""
    deployment, replay, workload = _static_arena(seed)
    network = _run_arena(deployment, replay, workload)
    before = _delivery_state(network)
    for placed in workload:
        node = network.nodes[placed.node_id]
        origin = network.neighbors(placed.node_id)[0]
        for event in replay.shifted(REPLAY_START):
            node.receive(EventMessage(event, (event.sensor_id,)), origin)
    network.run_to_quiescence()
    assert _delivery_state(network) == before


def _soft_state_fingerprint(network: Network):
    """Routing + subscription knowledge per node (volatile event history
    is deliberately excluded: a crash legitimately forgets old events,
    which age out of the delta_t window anyway)."""
    return {
        node_id: (
            sorted(ad.sensor_id for ad in node.ads.all()),
            sorted(
                op_id
                for store in node.stores.values()
                for op_id in {r.operator.op_id for r in store.records()}
            ),
        )
        for node_id, node in network.nodes.items()
    }


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    crash_pick=st.integers(min_value=0, max_value=1_000),
)
@_property_settings
def test_recovery_converges_to_the_no_fault_fixed_point(seed, crash_pick):
    """Crash any non-subscriber broker after setup, recover it, run one
    refresh round: routing and subscription state is indistinguishable
    from a network that never crashed (and also ran the round)."""
    deployment, replay, workload = _static_arena(seed)
    subscriber_hosts = {p.node_id for p in workload}
    cfg = ReliabilityConfig()
    crashed = _run_arena(deployment, replay, workload, reliability=cfg)
    candidates = sorted(set(crashed.nodes) - subscriber_hosts)
    victim = candidates[crash_pick % len(candidates)]
    crashed.crash_node(victim)
    crashed.recover_node(victim)
    crashed.run_to_quiescence()
    crashed.schedule_refresh([(crashed.sim.now + 1.0, 1)])
    crashed.run_to_quiescence()

    steady = _run_arena(deployment, replay, workload, reliability=cfg)
    steady.schedule_refresh([(steady.sim.now + 1.0, 1)])
    steady.run_to_quiescence()
    assert _soft_state_fingerprint(crashed) == _soft_state_fingerprint(steady)


class TestSoftStateExpiry:
    def test_remote_ads_expire_after_missed_rounds_and_return(self):
        network = Network(
            line_deployment(),
            Simulator(seed=0),
            reliability=ReliabilityConfig(expiry_rounds=2),
        )
        all_approaches()["naive"].populate(network)
        network.attach_all_sensors()
        network.run_to_quiescence()
        assert network.nodes["hub"].ads.get("c") is not None
        network.crash_node("s_c")
        t = network.sim.now
        network.schedule_refresh([(t + 10, 1), (t + 20, 2)])
        network.run_to_quiescence()
        # Two missed rounds are not yet an expiry (strict threshold).
        assert network.nodes["hub"].ads.get("c") is not None
        network.schedule_refresh([(network.sim.now + 10, 3)])
        network.run_to_quiescence()
        # The third round expires the silent sensor everywhere live...
        for node_id in ("hub", "s_a", "s_b", "u1", "u2"):
            assert network.nodes[node_id].ads.get("c") is None, node_id
        assert network.nodes["hub"].ads.get("a") is not None  # others live on
        # ...and recovery re-floods it through the normal re-join path.
        network.recover_node("s_c")
        network.run_to_quiescence()
        for node_id in ("hub", "s_a", "s_b", "u1", "u2"):
            assert network.nodes[node_id].ads.get("c") is not None, node_id


def _outage_factory(seed):
    return build_deployment(24, 3, seed=seed)


class TestOutageRecovery:
    def test_correlated_outage_recovers_to_full_recall(self):
        """The acceptance criterion: every sensor-hosting leaf broker in
        the deployment fails *together* for half a minute; with the
        reliability layer on, the run still measures recall 1.0 for all
        five approaches — the oracle fences exactly the readings the
        down hosts dropped, recovery re-floods local sensors, and the
        refresh round right after the window re-heals remote soft state
        before the next matchable reading arrives."""
        deployment = _outage_factory(0)
        leaves = sorted(
            n
            for n in {p.node_id for p in deployment.sensors}
            if len(deployment.graph[n]) == 1
        )
        assert leaves, "deployment lost its leaf sensor hosts?"
        scenario = Scenario(
            key="tiny-outage",
            title="correlated base-station outage",
            deployment_factory=_outage_factory,
            paper_subscription_counts=(60,),
            attrs_min=3,
            attrs_max=5,
            include_centralized=True,
            faults=FaultPlan(
                outages=(OutageWindow(tuple(leaves), 60.0, 89.0),)
            ),
            reliability=ReliabilityConfig(refresh_interval=30.0),
        )
        series = run_series(scenario, all_approaches(), scale=0.1)
        for key, runs in series.results.items():
            result = runs[-1]
            assert result.accuracy.recall == 1.0, (key, result.accuracy)
            assert result.accuracy.true_instances > 0, key
            assert result.final.refresh_units > 0, key
            if key != "centralized":
                # Flood traffic addressed to down brokers genuinely
                # died (centralized never targets the leaves: its star
                # only exchanges with the centre, so nothing it sends
                # crosses a down domain).
                assert result.final.dropped_messages > 0, key
