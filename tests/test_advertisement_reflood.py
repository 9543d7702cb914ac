"""Regression tests for the advertisement retraction / re-flood path.

The seed system flooded advertisements exactly once at setup; churn
makes the advertisement channel live: a departing sensor's retraction
floods through the tree (every node forgets it and fences its events),
and a rejoining sensor's re-advertisement floods the same way a fresh
one does — reaching **every** broker that held it before the departure.
Message accounting must include this traffic: the figures would silently
undercount churn scenarios otherwise.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.baselines.naive import naive_approach
from repro.experiments.runner import run_program
from repro.metrics.report import render_traffic_accounting, traffic_accounting
from repro.model.events import SimpleEvent
from repro.network.links import TrafficSnapshot
from repro.network.network import Network
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.sim import Simulator
from repro.workload.program import WorkloadProgram
from repro.workload.sensorscope import ChurnConfig, DynamicReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

from deployments import links_of


@pytest.fixture
def arena():
    deployment = build_deployment(16, 2, seed=3)
    sim = Simulator(seed=3)
    network = Network(deployment, sim)
    naive_approach().populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    return deployment, network


def _holders(network: Network, sensor_id: str) -> dict[str, str]:
    """node -> next hop toward ``sensor_id``, for every node knowing it."""
    return {
        node_id: next(iter(node.ads.partition_by_origin([sensor_id])))
        for node_id, node in network.nodes.items()
        if sensor_id in node.ads.known_ids
    }


class TestRefloodReach:
    def test_rejoin_reaches_every_former_holder(self, arena):
        deployment, network = arena
        placement = deployment.sensors[0]
        before = _holders(network, placement.sensor_id)
        # Flooding reached the whole overlay at setup.
        assert set(before) == set(network.nodes)

        network.detach_sensor(placement.node_id, placement.sensor_id)
        network.run_to_quiescence()
        assert _holders(network, placement.sensor_id) == {}

        network.attach_sensor(placement.node_id, placement)
        network.run_to_quiescence()
        after = _holders(network, placement.sensor_id)
        # Every broker that held the advertisement before the departure
        # holds it again — with the identical reverse path.
        assert after == before

    def test_retraction_fences_every_store(self, arena):
        deployment, network = arena
        placement = deployment.sensors[0]
        # Stamped at the current instant — stored events never postdate
        # the clock (publications are scheduled at their timestamps).
        event = SimpleEvent(
            placement.sensor_id,
            placement.attribute.name,
            placement.location,
            float(placement.attribute.domain.lo),
            network.sim.now,
            seq=0,
        )
        host = network.nodes[placement.node_id]
        host.ingest(event)
        assert len(host.store) == 1

        network.detach_sensor(placement.node_id, placement.sensor_id)
        network.run_to_quiescence()
        for node in network.nodes.values():
            assert (
                node.store.events_for_sensor(
                    placement.sensor_id, -math.inf, math.inf
                )
                == ()
            )
        # The fence also blocks a forwarded copy of the old reading.
        assert not host.ingest(event)

    def test_detach_unknown_sensor_is_noop(self, arena):
        _, network = arena
        before = network.meter.snapshot()
        some_node = next(iter(network.nodes))
        network.detach_sensor(some_node, "no-such-sensor")
        network.run_to_quiescence()
        assert network.meter.snapshot() == before


class TestRefloodAccounting:
    def test_leave_and_rejoin_cost_two_floods(self, arena):
        deployment, network = arena
        placement = deployment.sensors[0]
        edges = len(links_of(deployment.graph))
        base = network.meter.snapshot()

        network.detach_sensor(placement.node_id, placement.sensor_id)
        network.run_to_quiescence()
        after_retract = network.meter.snapshot().minus(base)
        # A flood crosses every tree edge exactly once.
        assert after_retract.advertisement_units == edges
        assert after_retract.event_units == 0
        assert after_retract.subscription_units == 0

        network.attach_sensor(placement.node_id, placement)
        network.run_to_quiescence()
        total = network.meter.snapshot().minus(base)
        assert total.advertisement_units == 2 * edges

    def test_program_run_measures_reflood_load(self):
        deployment = build_deployment(16, 2, seed=5)
        compiled = WorkloadProgram(
            subscriptions=SubscriptionWorkloadConfig(
                n_subscriptions=4, attrs_min=2, attrs_max=4, seed=5
            ),
            dynamic=DynamicReplayConfig(
                days=2, rounds_per_day=5, day_seconds=80.0, seed=6
            ),
            churn=ChurnConfig(cycle_fraction=0.4, seed=7),
        ).compile(deployment)
        assert compiled.churn is not None
        transitions = len(compiled.churn.transitions())
        edges = len(links_of(deployment.graph))
        naive = all_approaches()["naive"]
        result = run_program(naive, compiled)
        # Every leave floods a retraction, every rejoin re-floods the
        # advertisement: one tree-wide flood per transition.
        reflood = result.final.minus(result.after_advertisements)
        assert reflood.advertisement_units == transitions * edges
        # And the same events without the schedule measure zero there.
        static = run_program(naive, dataclasses.replace(compiled, churn=None))
        assert (
            static.final.advertisement_units
            == static.after_advertisements.advertisement_units
        )

    def test_traffic_accounting_includes_reflood(self):
        class Point:
            after_advertisements = TrafficSnapshot(0, 0, 30, 30)
            after_setup = TrafficSnapshot(10, 0, 30, 40)
            final = TrafficSnapshot(10, 100, 42, 152)

        totals = traffic_accounting([Point(), Point()])
        assert totals["reflood_units"] == 24
        assert totals["advertisement_units"] == 60 + 24  # setup + re-flood
        assert totals["total_units"] == 20 + 200 + 60 + 24
        text = render_traffic_accounting("t", {"naive": [Point()]})
        assert "reflood units" in text and "advertisement units" in text

    def test_centralized_churn_unicasts_to_center(self):
        deployment = build_deployment(16, 2, seed=3)
        sim = Simulator(seed=3)
        network = Network(deployment, sim)
        all_approaches()["centralized"].populate(network)
        network.attach_all_sensors()
        network.run_to_quiescence()
        # No advertisement flooding at setup — Table II's contract.
        assert network.meter.advertisement_units == 0
        placement = deployment.sensors[0]
        hops = network.routing.distance(placement.node_id, network.center)
        network.detach_sensor(placement.node_id, placement.sensor_id)
        network.attach_sensor(placement.node_id, placement)
        network.run_to_quiescence()
        # Retraction + re-join notice, charged per hop toward the centre.
        assert network.meter.advertisement_units == 2 * hops
