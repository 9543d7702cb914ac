"""Shared test deployments and helpers, importable by name.

Historically these lived in ``tests/conftest.py`` and test modules did
``from conftest import ...`` — which breaks as soon as pytest collects
``benchmarks/`` too, because both directories own a module literally
named ``conftest`` and whichever is imported first wins in
``sys.modules``.  Keeping the helpers in a uniquely named module makes
the imports unambiguous regardless of what else is collected.
"""

from __future__ import annotations

from repro.model import Advertisement, AdvertisementTable, Location, SimpleEvent
from repro.model.attributes import AttributeType
from repro.model.intervals import Interval
from repro.model.operators import root_operator
from repro.network.network import Network
from repro.network.topology import Deployment, Overlay, SensorPlacement, add_link
from repro.sim import Simulator

# ---------------------------------------------------------------------------
# A hand-built line deployment:
#
#   u2 -- u1 -- hub -- s_a -- s_b -- s_c
#
# Three sensors (a, b, c — one generic attribute 't') on a chain, two
# relay/user nodes.  Small enough to reason about exact traffic counts.
# ---------------------------------------------------------------------------
ATTR = AttributeType("t", Interval(-1000.0, 1000.0))


def advertised(attribute_of, at: Location = Location(0.0, 0.0)) -> AdvertisementTable:
    """A table advertising each ``{sensor: attribute}`` at ``at``, as a
    node's table holds them after the flood."""
    table = AdvertisementTable()
    for sensor_id, attribute in attribute_of.items():
        table.add(table.LOCAL, Advertisement(sensor_id, attribute, at))
    return table


def identified_operator(subscription, subscriber: str):
    """The root operator of an identified subscription whose sensors
    are all advertised."""
    return root_operator(
        subscription,
        subscriber,
        advertised({f.sensor_id: f.attribute for f in subscription.filters}),
    )


def overlay(links) -> Overlay:
    """The overlay joining each ``(a, b)`` of ``links``, in order."""
    graph: Overlay = {}
    for a, b in links:
        add_link(graph, a, b)
    return graph


def links_of(graph: Overlay) -> set[frozenset[str]]:
    """Every link of ``graph`` as an unordered pair."""
    return {frozenset((a, b)) for a in graph for b in graph[a]}


def line_deployment() -> Deployment:
    graph = overlay(
        [("u2", "u1"), ("u1", "hub"), ("hub", "s_a"), ("s_a", "s_b"), ("s_b", "s_c")]
    )
    sensors = [
        SensorPlacement("a", ATTR, Location(0.0, 0.0), "s_a", 0),
        SensorPlacement("b", ATTR, Location(1.0, 0.0), "s_b", 0),
        SensorPlacement("c", ATTR, Location(2.0, 0.0), "s_c", 0),
    ]
    return Deployment(
        graph,
        sensors,
        {0: sensors},
        ["u2", "u1", "hub"],
        {0: "hub"},
        seed=0,
    )


# A fork deployment: sensors behind different branches, so splitting and
# divergence genuinely occur.
#
#        u1
#        |
#       mid
#      /    \
#    s_a    s_b
#            |
#           s_c
def fork_deployment() -> Deployment:
    graph = overlay([("u1", "mid"), ("mid", "s_a"), ("mid", "s_b"), ("s_b", "s_c")])
    sensors = [
        SensorPlacement("a", ATTR, Location(0.0, 0.0), "s_a", 0),
        SensorPlacement("b", ATTR, Location(1.0, 0.0), "s_b", 0),
        SensorPlacement("c", ATTR, Location(2.0, 0.0), "s_c", 0),
    ]
    return Deployment(
        graph, sensors, {0: sensors}, ["u1", "mid"], {0: "mid"}, seed=0
    )


def make_network(deployment: Deployment, approach) -> Network:
    network = Network(deployment, Simulator(seed=0))
    approach.populate(network)
    # Sensors are always attached; approaches that do not flood
    # advertisements (centralized) just record them locally.
    network.attach_all_sensors()
    network.run_to_quiescence()
    return network


def publish(network: Network, sensor_id: str, value: float, ts: float, seq: int = 0):
    """Publish a reading on the node hosting ``sensor_id`` at sim-time ts."""
    placement = network.deployment.sensor_by_id(sensor_id)
    event = SimpleEvent(
        sensor_id, placement.attribute.name, placement.location, value, ts, seq
    )
    network.sim.at(ts, lambda: network.publish(placement.node_id, event))
    return event
