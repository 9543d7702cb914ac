"""Deployment topologies emulating the SensorScope setup (Section VI-A).

The experiments group "nodes with sensors from the same base station in
a vicinity, such that they are neighbors": each base-station *group*
contributes one sensor node per measured attribute (5 in the paper),
all attached to a relay; relays form a random tree backbone, so the
whole overlay is the acyclic graph the system model requires.  Users
(subscription entry points) sit on relay nodes.

Four named deployments mirror the paper's experiments:

=================  ======  ========  =======  ===============
experiment         nodes   sensors   groups   figures
=================  ======  ========  =======  ===============
small scale        60      50        10       4, 5
medium scale       100     50        10       6, 7 (+ centralized)
large (network)    200     50        10       8, 9
large (sources)    200     100       20       10, 11
=================  ======  ========  =======  ===============
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ..model import checks
from ..model.advertisements import Advertisement, AdvertisementTable
from ..model.attributes import AttributeType, SENSORSCOPE_ATTRIBUTES
from ..model.locations import Location


NODE_TIERS = ("mote", "relay", "base_station", "cloud")
"""The heterogeneous architecture tiers, weakest to strongest."""


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Per-node architecture attributes of the deployment graph.

    ``link_bandwidth`` scales the cost of moving one data unit over any
    link incident to the node (a link is priced by its *slower*
    endpoint), relative to the default relay (1.0).  It is the only
    attribute because units over links are the only thing the simulator
    meters; storage and compute are not charged, so they are not priced.
    Specs feed the placement cost model only — the traffic meter keeps
    counting units, so assigning specs never changes a measured run.
    """

    tier: str = "relay"
    link_bandwidth: float = 1.0

    def __post_init__(self) -> None:
        if self.tier not in NODE_TIERS:
            raise ValueError(
                f"unknown tier {self.tier!r}; known: {NODE_TIERS}"
            )
        checks.positive(self, "link_bandwidth")


Overlay = dict[str, list[str]]
"""The broker overlay: node -> neighbours, both in insertion order."""


def add_link(graph: Overlay, a: str, b: str) -> None:
    """Join ``a`` and ``b``, adding whichever of them ``graph`` lacks."""
    graph.setdefault(a, []).append(b)
    graph.setdefault(b, []).append(a)


def bfs(graph: Overlay, root: str) -> dict[str, tuple[str, int]]:
    """Every node reachable from ``root`` -> (its neighbour one hop
    closer to ``root``, its hop distance), in breadth-first order.

    ``root`` maps to ``(root, 0)``.  On a tree the parent is the next
    hop of the unique path toward ``root``.
    """
    reached = {root: (root, 0)}
    frontier = [root]
    depth = 0
    while frontier:
        depth += 1
        following = []
        for node in frontier:
            for neighbour in graph[node]:
                if neighbour not in reached:
                    reached[neighbour] = (node, depth)
                    following.append(neighbour)
        frontier = following
    return reached


def eccentricity(graph: Overlay, node: str) -> int:
    """The hop distance from ``node`` to the node farthest from it."""
    reached = bfs(graph, node)
    if len(reached) != len(graph):
        raise ValueError("the overlay is not connected")
    return max(depth for _, depth in reached.values())


def check_tree(graph: Overlay) -> None:
    """Raise ``ValueError`` unless ``graph`` is a non-empty undirected tree."""
    if not graph:
        raise ValueError("the overlay has no nodes")
    for node, neighbours in graph.items():
        for neighbour in neighbours:
            if node not in graph.get(neighbour, ()):
                raise ValueError(
                    f"the overlay must be undirected: {node!r} lists "
                    f"{neighbour!r}, which does not list it back"
                )
    # Connected with n - 1 links (each listed at both ends) is a tree;
    # a self-loop or a repeated link counts toward the links.
    links = sum(map(len, graph.values()))
    connected = len(bfs(graph, next(iter(graph)))) == len(graph)
    if not connected or links != 2 * (len(graph) - 1):
        raise ValueError("the overlay must be acyclic and connected")


DEFAULT_NODE_SPEC = NodeSpec()
"""What every node is until a deployment assigns tiers: a plain relay.
Homogeneous deployments carry no specs at all, so existing topologies
stay byte-identical."""

MOTE_SPEC = NodeSpec("mote", link_bandwidth=0.5)
BASE_STATION_SPEC = NodeSpec("base_station", link_bandwidth=4.0)
CLOUD_SPEC = NodeSpec("cloud", link_bandwidth=8.0)


@dataclass(frozen=True, slots=True)
class SensorPlacement:
    """One deployed sensor: identity, type, site and hosting node."""

    sensor_id: str
    attribute: AttributeType
    location: Location
    node_id: str
    group: int

    def advertisement(self) -> Advertisement:
        return Advertisement(self.sensor_id, self.attribute.name, self.location)


@dataclass
class Deployment:
    """An experiment topology: overlay graph + sensor placements."""

    graph: Overlay
    sensors: list[SensorPlacement]
    groups: dict[int, list[SensorPlacement]]
    relay_nodes: list[str]
    group_heads: dict[int, str]
    seed: int
    specs: dict[str, NodeSpec] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.graph)

    @property
    def sensor_nodes(self) -> dict[str, SensorPlacement]:
        return {s.node_id: s for s in self.sensors}

    @property
    def user_nodes(self) -> list[str]:
        """Nodes where user subscriptions may be injected (the relays)."""
        return list(self.relay_nodes)

    @cached_property
    def advertisements(self) -> AdvertisementTable:
        """Every sensor's advertisement, filed under its host node: the
        global knowledge the centre, the oracle and the placement
        compiler resolve subscriptions against (built once, on first
        read)."""
        table = AdvertisementTable()
        for s in self.sensors:
            table.add(s.node_id, s.advertisement())
        return table

    def sensors_of_group(self, group: int) -> list[SensorPlacement]:
        return list(self.groups[group])

    def sensor_by_id(self, sensor_id: str) -> SensorPlacement:
        for s in self.sensors:
            if s.sensor_id == sensor_id:
                return s
        raise KeyError(sensor_id)

    def diameter(self) -> int:
        return max(eccentricity(self.graph, node) for node in self.graph)

    def spec_of(self, node_id: str) -> NodeSpec:
        """The node's architecture spec (default relay when unassigned)."""
        return self.specs.get(node_id, DEFAULT_NODE_SPEC)

    def validate(self) -> None:
        """Assert the structural invariants the protocols rely on."""
        check_tree(self.graph)
        hosted = [s.node_id for s in self.sensors]
        if len(set(hosted)) != len(hosted):
            raise ValueError("one sensor per sensor node")
        if set(hosted) & set(self.relay_nodes):
            raise ValueError("relay nodes must not host sensors")
        graph_nodes = set(self.graph)
        missing_hosts = sorted(set(hosted) - graph_nodes)
        if missing_hosts:
            raise ValueError(
                "sensor hosting nodes missing from the overlay graph: "
                f"{missing_hosts}"
            )
        headless = sorted(g for g in self.groups if g not in self.group_heads)
        if headless:
            raise ValueError(f"groups without a head: {headless}")
        missing_heads = sorted(
            str(h) for h in self.group_heads.values() if h not in graph_nodes
        )
        if missing_heads:
            raise ValueError(
                f"group heads missing from the overlay graph: {missing_heads}"
            )
        unknown_specs = sorted(n for n in self.specs if n not in graph_nodes)
        if unknown_specs:
            raise ValueError(
                f"specs assigned to unknown nodes: {unknown_specs}"
            )


def _attach_random_tree(
    graph: Overlay, nodes: Sequence[str], rng: np.random.Generator
) -> None:
    """Random recursive tree over ``nodes`` (each attaches to an earlier one)."""
    for i, node in enumerate(nodes):
        if i == 0:
            graph[node] = []
            continue
        parent = nodes[int(rng.integers(0, i))]
        add_link(graph, node, parent)


def build_deployment(n_nodes: int, n_groups: int, seed: int = 0) -> Deployment:
    """Build a grouped deployment.

    ``n_nodes`` total processing nodes; each of the ``n_groups`` base
    stations hosts one sensor node per SensorScope attribute, the rest
    are relays.  Groups are placed on a jittered grid inside a 100-unit
    square; a group's sensors sit within 1 unit of its station, so
    spatial correlation distances (delta_l) distinguish in-group from
    cross-group events.
    """
    n_sensor_nodes = n_groups * len(SENSORSCOPE_ATTRIBUTES)
    n_relays = n_nodes - n_sensor_nodes
    if n_relays < max(1, n_groups):
        raise ValueError(
            f"{n_nodes} nodes cannot host {n_sensor_nodes} sensor nodes "
            f"plus at least {max(1, n_groups)} relays"
        )
    # The layout stream is keyed by the bare deployment seed since the
    # growth seed; rederiving it would change every generated overlay
    # and invalidate all pinned figures.
    rng = np.random.default_rng(seed)  # repro-lint: ignore[rng-stream] -- pre-derive_seed layout stream, pinned by figures
    graph: Overlay = {}

    relays = [f"r{i}" for i in range(n_relays)]
    _attach_random_tree(graph, relays, rng)

    # Station coordinates: jittered grid covering the area.
    side = int(np.ceil(np.sqrt(n_groups)))
    cell = 100.0 / side
    coords: list[Location] = []
    for g in range(n_groups):
        gx, gy = g % side, g // side
        x = (gx + 0.5) * cell + float(rng.uniform(-0.2, 0.2)) * cell
        y = (gy + 0.5) * cell + float(rng.uniform(-0.2, 0.2)) * cell
        coords.append(Location(x, y))

    # Spread the group heads over the relay backbone.
    head_ids = [int(i) for i in rng.choice(n_relays, size=n_groups, replace=False)]
    group_heads = {g: relays[h] for g, h in enumerate(head_ids)}

    sensors: list[SensorPlacement] = []
    groups: dict[int, list[SensorPlacement]] = {g: [] for g in range(n_groups)}
    for g in range(n_groups):
        head = group_heads[g]
        station = coords[g]
        # The group's sensor nodes form a chain hanging off the head —
        # "nodes with sensors from the same base station in a vicinity,
        # such that they are neighbors".  The chain makes subscription
        # splitting progressive (operators shed one slot per hop), which
        # is where the filter/split machinery earns its keep.
        previous = head
        for attribute in SENSORSCOPE_ATTRIBUTES:
            short = "".join(w[0] for w in attribute.name.split("_"))
            sensor_id = f"d{g}_{short}"
            node_id = f"s{g}_{short}"
            offset_x = float(rng.uniform(-1.0, 1.0))
            offset_y = float(rng.uniform(-1.0, 1.0))
            placement = SensorPlacement(
                sensor_id,
                attribute,
                Location(station.x + offset_x, station.y + offset_y),
                node_id,
                g,
            )
            sensors.append(placement)
            groups[g].append(placement)
            add_link(graph, node_id, previous)
            previous = node_id

    deployment = Deployment(graph, sensors, groups, relays, group_heads, seed)
    deployment.validate()
    return deployment


def small_scale(seed: int = 0) -> Deployment:
    """60 nodes, 50 sensor nodes, 10 groups (Figs 4-5)."""
    return build_deployment(60, 10, seed=seed)


def medium_scale(seed: int = 0) -> Deployment:
    """100 nodes, 50 sensor nodes, 10 groups (Figs 6-7)."""
    return build_deployment(100, 10, seed=seed)


def large_network(seed: int = 0) -> Deployment:
    """200 nodes, 50 sensor nodes, 10 groups (Figs 8-9)."""
    return build_deployment(200, 10, seed=seed)


def large_sources(seed: int = 0) -> Deployment:
    """200 nodes, 100 sensor nodes, 20 groups (Figs 10-11)."""
    return build_deployment(200, 20, seed=seed)


def tiered_specs(deployment: Deployment) -> dict[str, NodeSpec]:
    """Architecture tiers as a pure function of a built topology.

    Sensor hosts are motes, group heads base stations, the backbone
    centre (smallest-eccentricity relay, lowest node id on ties) the
    cloud uplink, every other relay a plain relay.  No randomness: the
    assignment draws nothing, so decorating a deployment with tiers
    keeps its graph, sensors and every downstream RNG stream
    byte-identical to the undecorated build.
    """
    center = min(
        (eccentricity(deployment.graph, node), node)
        for node in deployment.relay_nodes
    )[1]
    heads = set(deployment.group_heads.values())
    specs: dict[str, NodeSpec] = {}
    for node in sorted(deployment.graph):
        if node == center:
            specs[node] = CLOUD_SPEC
        elif node in heads:
            specs[node] = BASE_STATION_SPEC
        elif node in deployment.sensor_nodes:
            specs[node] = MOTE_SPEC
        else:
            specs[node] = NodeSpec("relay")
    return specs


def tiered_small_scale(seed: int = 0) -> Deployment:
    """The small-scale deployment with heterogeneous architecture tiers.

    Same graph, sensors and seed streams as :func:`small_scale` — only
    the ``specs`` map differs, which feeds the placement cost model and
    nothing else (figs 19-20, the placement family).
    """
    deployment = small_scale(seed)
    deployment.specs.update(tiered_specs(deployment))
    deployment.validate()
    return deployment
