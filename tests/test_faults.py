"""Seeded transport fault injection — the :class:`FaultPlan` lane.

Four guarantee families:

* **plan semantics** — validation, truthiness, per-link lookup,
  hashability (plans ride inside scenario memo keys);
* **seeded determinism** — the same plan produces bit-identical series,
  a different fault seed genuinely changes the run;
* **null-fault bit-identity** — ``FaultPlan.none()`` is machine-checked
  identical to running with no plan at all, across all five approaches,
  on the bare incremental engine and shadowed by the reference matcher
  (every other run here is shadowed, see ``tests/conftest.py``);
* **crash/recover + livelock diagnosis** — broker outages lose volatile
  state and re-enter via the re-flood path; budget exhaustion names the
  pending loop and the busiest links.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from benchlib import tiny_bench_deployment
from deployments import fork_deployment, line_deployment, publish

from repro.experiments.runner import run_program, run_series
from repro.metrics.fences import Fences
from repro.metrics.oracle import compute_truth
from repro.metrics.recall import measure_recall
from repro.model import IdentifiedSubscription
from repro.network.faults import FaultPlan, LinkFault, OutageWindow
from repro.network.network import LivelockError, Network
from repro.network.reliability import ReliabilityConfig
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.sim import Simulator
from repro.workload.program import REPLAY_START, WorkloadProgram, execute_program
from repro.workload.scenarios import Scenario
from repro.workload.sensorscope import (
    ChurnConfig,
    ChurnSchedule,
    DynamicReplayConfig,
    ReplayConfig,
    build_replay,
)
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)


def tiny_faults_scenario(**overrides) -> Scenario:
    defaults = dict(
        key="tiny-faults",
        title="tiny faulty scenario",
        # module-level, so the scenario pickles when CI's family job
        # runs this suite with REPRO_WORKERS=2
        deployment_factory=tiny_bench_deployment,
        paper_subscription_counts=(60,),
        attrs_min=3,
        attrs_max=5,
        faults=FaultPlan(default=LinkFault(drop=0.1, jitter=0.02), seed=5),
        reliability=ReliabilityConfig(),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestPlanSemantics:
    def test_link_fault_rejects_bad_values(self):
        with pytest.raises(ValueError, match="drop"):
            LinkFault(drop=-0.1)
        with pytest.raises(ValueError, match=r"drop must be in \[0, 1\]"):
            LinkFault(drop=1.5)
        with pytest.raises(ValueError, match="jitter"):
            LinkFault(jitter=-1.0)

    def test_outage_window_rejects_bad_values(self):
        with pytest.raises(ValueError, match="domain"):
            OutageWindow(domain=(), start=0.0, end=1.0)
        with pytest.raises(ValueError, match="end after"):
            OutageWindow(domain=("hub",), start=5.0, end=5.0)
        with pytest.raises(ValueError, match=r"OutageWindow\.start must be .*>= 0"):
            OutageWindow(domain=("hub",), start=-1.0, end=1.0)

    def test_outage_that_never_recovers(self):
        """``end=inf``: the domain stays down to the end of the run, no
        recovery edge is scheduled (the clock stays finite), and every
        approach still finds all the truth the fenced oracle keeps."""
        deployment = build_deployment(24, 3, seed=4)
        down = OutageWindow(("s1_rh", "s0_ws"), 40.0, math.inf)
        program = WorkloadProgram(
            subscriptions=SubscriptionWorkloadConfig(
                n_subscriptions=12, attrs_min=2, attrs_max=4, seed=4
            ),
            replay=ReplayConfig(rounds=12, seed=3),
            faults=FaultPlan(outages=(down,)),
        )
        compiled = program.compile(deployment)
        truth = compiled.truth()
        unfenced = replace(program, faults=None).compile(deployment).truth()
        assert sum(len(t.triggers) for t in truth.values()) < sum(
            len(t.triggers) for t in unfenced.values()
        )
        for key, approach in all_approaches().items():
            session = execute_program(compiled, approach).session
            assert math.isfinite(session.now), key
            assert session.network.down == {"s1_rh", "s0_ws"}, key
            assert measure_recall(truth, session.network.delivery).recall == 1.0, key

    def test_truthiness(self):
        assert not FaultPlan.none()
        assert not FaultPlan(links=(("a", "b", LinkFault()),))
        assert FaultPlan(default=LinkFault(drop=0.1))
        assert FaultPlan(links=(("a", "b", LinkFault(delay=0.5)),))
        assert FaultPlan(outages=(OutageWindow(("hub",), 0.0, 1.0),))

    def test_per_link_lookup_falls_back_to_default(self):
        bad = LinkFault(drop=0.5)
        plan = FaultPlan(
            default=LinkFault(drop=0.01), links=(("u1", "hub", bad),)
        )
        assert plan.link_fault("u1", "hub") is bad
        # Directed: the reverse link keeps the default.
        assert plan.link_fault("hub", "u1") == LinkFault(drop=0.01)

    def test_plans_are_hashable_memo_keys(self):
        a = FaultPlan(default=LinkFault(drop=0.1), seed=97)
        b = FaultPlan(default=LinkFault(drop=0.1), seed=97)
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert hash(replace(a, seed=98)) != hash(a) or replace(a, seed=98) != a

    def test_validate_against_rejects_unknown_domain_nodes(self):
        deployment = line_deployment()
        plan = FaultPlan(outages=(OutageWindow(("nowhere",), 0.0, 1.0),))
        with pytest.raises(ValueError, match="nowhere"):
            plan.validate_against(deployment)
        FaultPlan(outages=(OutageWindow(("hub",), 0.0, 1.0),)).validate_against(
            deployment
        )

    def test_sensor_down_windows_maps_hosted_sensors(self):
        deployment = line_deployment()
        plan = FaultPlan(
            outages=(OutageWindow(("s_a", "s_b"), 10.0, 20.0),)
        )
        fences = Fences.build(deployment, outages=plan.outages, offset=5.0)
        assert fences.gaps == {"a": ((15.0, 25.0),), "b": ((15.0, 25.0),)}

    def test_departure_inside_an_outage_takes_effect_at_its_end(self):
        """The down host floods the retraction only when it recovers;
        a departure outside every outage of its host keeps its time."""
        churn = ChurnSchedule(
            {
                "a": ((-math.inf, 12.0), (14.0, 30.0)),
                "b": ((-math.inf, 10.0), (11.0, math.inf)),
            }
        )
        fences = Fences.build(
            line_deployment(),
            churn=churn,
            outages=(OutageWindow(("s_a", "s_b"), 10.0, 20.0),),
        )
        assert fences.departures == {"a": (20.0, 30.0), "b": (10.0,)}
        assert fences.last_departures() == {"a": 30.0, "b": 10.0}

    def test_oracle_outage_fence_only_removes_truth(self):
        deployment = line_deployment()
        replay = build_replay(deployment, ReplayConfig(rounds=6, seed=3))
        workload = generate_subscriptions(
            deployment,
            replay.medians,
            SubscriptionWorkloadConfig(
                n_subscriptions=5, attrs_min=2, attrs_max=3, seed=2
            ),
            spreads=replay.spreads,
        )
        subs = [p.subscription for p in workload]
        events = replay.shifted(REPLAY_START)
        span = events[-1].timestamp - REPLAY_START
        fences = Fences.build(
            deployment,
            outages=(OutageWindow(("s_a",), span * 0.25, span * 0.75),),
            offset=REPLAY_START,
        )
        fenced = compute_truth(subs, deployment, events, fences=fences)
        full = compute_truth(subs, deployment, events)
        for sub_id, truth in fenced.items():
            assert truth.triggers <= full[sub_id].triggers, sub_id
            assert truth.participants <= full[sub_id].participants, sub_id
        # The fence genuinely bites on this workload: sensor `a` events
        # inside the window exist, so some truth disappears.
        assert any(
            fenced[sub_id].triggers < full[sub_id].triggers for sub_id in full
        )


DETERMINISTIC = ("naive", "operator_placement", "fsf", "centralized")


class TestChurnWithOutages:
    """Sensor churn and broker outages compose: one ``Fences`` value
    states both, and a broker that is down when its sensor leaves or
    re-joins retracts and re-advertises at recovery."""

    PROGRAM = WorkloadProgram(
        subscriptions=SubscriptionWorkloadConfig(
            n_subscriptions=12, attrs_min=2, attrs_max=4, seed=4
        ),
        dynamic=DynamicReplayConfig(days=2, rounds_per_day=6, day_seconds=100.0),
        churn=ChurnConfig(cycle_fraction=0.5),
        reliability=ReliabilityConfig(),
        faults=FaultPlan(
            outages=(
                # d1_rh leaves at 64.3 and re-joins at 91.6: both while
                # its host is down.
                OutageWindow(("s1_rh",), 60.0, 100.0),
                # d0_ws and d2_st leave inside, re-join after.
                OutageWindow(("s0_ws", "s2_st"), 150.0, 170.0),
            )
        ),
    )

    def test_the_outages_hold_the_churn_they_are_meant_to(self):
        deployment = build_deployment(24, 3, seed=4)
        churn = self.PROGRAM.source(deployment).replay.churn
        assert churn.intervals["d1_rh"][:2] == (
            (-math.inf, pytest.approx(64.3, abs=0.05)),
            (pytest.approx(91.6, abs=0.05), math.inf),
        )
        for sensor_id in ("d0_ws", "d2_st"):
            leave = churn.intervals[sensor_id][0][1]
            assert 150.0 < leave <= 170.0 < churn.intervals[sensor_id][1][0]

    def test_churn_and_outages_combine_without_false_positives(self):
        deployment = build_deployment(24, 3, seed=4)
        combined = self.PROGRAM.compile(deployment)
        twin = replace(self.PROGRAM, churn=None).compile(deployment)
        combined_truth, twin_truth = combined.truth(), twin.truth()
        for key in DETERMINISTIC:
            approach = all_approaches()[key]
            result = run_program(approach, combined, truths=combined_truth)
            alone = run_program(approach, twin, truths=twin_truth)
            assert result.accuracy.false_positive_rate == 0.0, key
            assert result.accuracy.recall >= alone.accuracy.recall, key


class TestSeededDeterminism:
    def test_same_plan_same_series(self):
        scenario = tiny_faults_scenario()
        approaches = {
            k: v for k, v in all_approaches().items() if k in ("naive", "fsf")
        }
        a = run_series(scenario, approaches, scale=0.1)
        b = run_series(scenario, approaches, scale=0.1)
        assert a.results == b.results
        # The plan genuinely bit: losses occurred and were metered.
        assert all(
            r.final.dropped_messages > 0
            for runs in a.results.values()
            for r in runs
        )

    def test_different_fault_seed_changes_the_run(self):
        scenario = tiny_faults_scenario()
        reseeded = replace(
            scenario, faults=replace(scenario.faults, seed=1234)
        )
        approaches = {"naive": all_approaches()["naive"]}
        a = run_series(scenario, approaches, scale=0.1)
        b = run_series(reseeded, approaches, scale=0.1)
        assert a.results != b.results


class TestNullFaultBitIdentity:
    """``FaultPlan.none()`` must be indistinguishable from no plan."""

    @pytest.mark.parametrize("matching", ["incremental", "reference"])
    @pytest.mark.parametrize(
        "key", ["naive", "operator_placement", "multijoin", "fsf", "centralized"]
    )
    def test_none_plan_is_bit_identical(self, key, matching, matcher):
        matcher(matching)
        scenario = tiny_faults_scenario(faults=None, reliability=None)
        deployment = scenario.deployment()
        base = scenario.program(8).with_prefix(8)
        source = base.source(deployment)
        compiled = base.compile(deployment, source)
        truths = compiled.truth()
        null_plan = replace(compiled, faults=FaultPlan.none())
        approach = all_approaches()[key]
        plain = run_program(approach, compiled, truths=truths)
        nulled = run_program(approach, null_plan, truths=truths)
        assert plain == nulled
        assert nulled.final.retransmission_units == 0
        assert nulled.final.refresh_units == 0
        assert nulled.final.dropped_messages == 0


class TestCrashRecover:
    def _network(self, reliability=None, approach="naive", deployment=None):
        deployment = deployment or line_deployment()
        network = Network(
            deployment, Simulator(seed=0), reliability=reliability
        )
        all_approaches()[approach].populate(network)
        network.attach_all_sensors()
        network.run_to_quiescence()
        return network

    def test_crash_loses_volatile_state_and_gates_publish(self):
        network = self._network()
        node = network.nodes["s_b"]
        assert node.ads.get("a") is not None  # learned via the flood
        network.crash_node("s_b")
        assert "s_b" in network.down
        assert node.ads.get("a") is None
        assert node.ads.get("b") is None  # even its own advertisement
        # Readings die at a down host (what the oracle fences out).
        before = network.sim.processed_events
        from repro.model.events import SimpleEvent
        from repro.model.locations import Location

        network.publish(
            "s_b", SimpleEvent("b", "t", Location(1.0, 0.0), 1.0, 50.0, seq=9)
        )
        network.run_to_quiescence()
        assert network.sim.processed_events == before

    def test_crash_is_idempotent_and_validates(self):
        network = self._network()
        with pytest.raises(ValueError, match="unknown node"):
            network.crash_node("nowhere")
        network.crash_node("s_b")
        network.crash_node("s_b")  # no-op, no double bookkeeping
        assert network.down == {"s_b"}

    def test_recover_refloods_local_sensors(self):
        network = self._network()
        network.crash_node("s_b")
        network.recover_node("s_b")
        network.run_to_quiescence()
        node = network.nodes["s_b"]
        assert node.ads.get("b") is not None  # re-advertised
        assert network.nodes["hub"].ads.get("b") is not None
        # Remote state does NOT return on its own — that is the refresh
        # layer's job (see test_reliability).
        assert node.ads.get("a") is None

    def test_refresh_round_restores_remote_state_after_recovery(self):
        network = self._network(reliability=ReliabilityConfig())
        network.crash_node("s_b")
        network.recover_node("s_b")
        network.run_to_quiescence()
        network.schedule_refresh([(network.sim.now + 1.0, 1)])
        network.run_to_quiescence()
        node = network.nodes["s_b"]
        assert node.ads.get("a") is not None
        assert node.ads.get("c") is not None

    def test_leave_during_outage_is_retracted_at_recovery(self):
        network = self._network(ReliabilityConfig(), approach="fsf")
        network.crash_node("s_a")
        network.detach_sensor("s_a", "a")
        network.run_to_quiescence()
        assert network.nodes["hub"].ads.get("a") is not None  # not yet
        network.recover_node("s_a")
        network.run_to_quiescence()
        for node_id in ("s_a", "hub", "u1", "s_b"):
            assert network.nodes[node_id].ads.get("a") is None, node_id
        assert network.nodes["hub"].ads.get("b") is not None

    def test_join_during_outage_sends_nothing_until_recovery(self):
        network = self._network(ReliabilityConfig(), approach="fsf")
        network.detach_sensor("s_a", "a")
        network.run_to_quiescence()
        network.crash_node("s_a")
        before = network.meter.snapshot()
        network.attach_sensor("s_a", network.deployment.sensor_by_id("a"))
        network.run_to_quiescence()
        assert network.meter.snapshot() == before
        network.recover_node("s_a")
        network.run_to_quiescence()
        assert network.nodes["hub"].ads.get("a") is not None

    @pytest.mark.parametrize("key", DETERMINISTIC)
    def test_the_network_delivers_what_the_fenced_oracle_credits(self, key):
        """A leave and a re-join while ``s_a`` is down: until recovery
        floods the retraction, ``a``'s pre-outage reading still matches
        (the departure takes effect at the outage's end); after it, the
        reading ``b`` publishes at +12 matches nothing, and only the
        post-rejoin pair does."""
        network = self._network(
            ReliabilityConfig(), approach=key, deployment=fork_deployment()
        )
        subscription = IdentifiedSubscription.from_ranges(
            "q", {"a": ("t", 0.0, 100.0), "b": ("t", 0.0, 100.0)}, 20.0
        )
        network.register_subscription("u1", subscription)
        network.run_to_quiescence()
        t0 = network.sim.now + 10.0
        events = [
            publish(network, "a", 50.0, t0 + 1.0),
            publish(network, "b", 50.0, t0 + 6.0),
            publish(network, "b", 50.0, t0 + 12.0, seq=1),
            publish(network, "a", 50.0, t0 + 40.0, seq=1),
            publish(network, "b", 50.0, t0 + 45.0, seq=2),
        ]
        churn = ChurnSchedule({"a": ((-math.inf, t0 + 4.0), (t0 + 7.0, math.inf))})
        outage = OutageWindow(("s_a",), t0 + 2.0, t0 + 10.0)
        network.schedule_churn(churn)
        network.schedule_outages((outage,))
        network.schedule_refresh([(t0 + 11.0, 1)])  # s_a re-learns its piece
        network.run_to_quiescence()
        truth = compute_truth(
            [subscription],
            network.deployment,
            events,
            fences=Fences.build(
                network.deployment, churn=churn, outages=(outage,)
            ),
        )["q"]
        assert truth.participants == {e.key for e in events} - {("b", 1)}
        assert set(network.delivery.delivered("q")) == truth.participants

    def test_refresh_requires_reliability(self):
        network = self._network()
        with pytest.raises(ValueError, match="reliability"):
            network.schedule_refresh([(100.0, 1)])


class TestLivelockDiagnosis:
    def test_budget_exhaustion_names_the_loop(self):
        network = Network(line_deployment(), Simulator(seed=0))
        all_approaches()["naive"].populate(network)
        network.attach_all_sensors()
        network.run_to_quiescence()

        def heartbeat():
            network.sim.schedule(1.0, heartbeat)

        network.sim.schedule(0.0, heartbeat)
        with pytest.raises(LivelockError, match="max_events=7") as exc_info:
            network.run_to_quiescence(max_events=7)
        error = exc_info.value
        assert "hottest pending actions" in str(error)
        assert "heartbeat" in str(error)
        assert error.pending_actions  # the structured diagnosis survives
        assert isinstance(error.busiest_links, list)
        # The ad flood left real traffic, so links are named with units.
        assert "units" in str(error)

    def test_retransmit_storm_is_named_as_timers(self):
        """A dead link under the reliability layer leaves nothing but
        retry timers pending; the diagnosis says so by name, apart from
        arrivals and acks."""
        network = Network(
            line_deployment(),
            Simulator(seed=0),
            faults=FaultPlan(links=(("hub", "u1", LinkFault(drop=1.0)),)),
            reliability=ReliabilityConfig(max_retries=50, backoff=1.0),
        )
        all_approaches()["naive"].populate(network)
        network.attach_all_sensors()
        with pytest.raises(LivelockError) as exc_info:
            network.run_to_quiescence(max_events=120)
        pending = dict(exc_info.value.pending_actions)
        assert pending == {"Transport._arm.<locals>.timeout": 3}
        assert "Transport._arm.<locals>.timeout x3" in str(exc_info.value)
