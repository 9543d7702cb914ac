"""Tests for deployment topologies and tree routing."""

import pytest

from repro.network.routing import RoutingTable, graph_center
from repro.network.topology import (
    Deployment,
    build_deployment,
    check_tree,
    large_network,
    large_sources,
    medium_scale,
    small_scale,
)

from deployments import links_of, overlay


def line(n: int):
    """The path n0 - n1 - ... - n{n-1}."""
    return overlay([(f"n{i}", f"n{i + 1}") for i in range(n - 1)])


class TestDeployments:
    @pytest.mark.parametrize(
        "factory,n_nodes,n_sensors,n_groups",
        [
            (small_scale, 60, 50, 10),
            (medium_scale, 100, 50, 10),
            (large_network, 200, 50, 10),
            (large_sources, 200, 100, 20),
        ],
    )
    def test_paper_scenarios_shape(self, factory, n_nodes, n_sensors, n_groups):
        dep = factory(seed=1)
        assert dep.n_nodes == n_nodes
        assert len(dep.sensors) == n_sensors
        assert len(dep.groups) == n_groups
        check_tree(dep.graph)

    def test_groups_have_one_sensor_per_attribute(self):
        dep = small_scale(seed=0)
        for group in dep.groups.values():
            attrs = [s.attribute.name for s in group]
            assert len(attrs) == len(set(attrs)) == 5

    def test_group_chain_members_are_neighbors(self):
        """'nodes with sensors from the same base station in a vicinity,
        such that they are neighbors' — the chain property."""
        dep = small_scale(seed=2)
        for g, members in dep.groups.items():
            ids = [m.node_id for m in members]
            chain = [dep.group_heads[g]] + ids
            for a, b in zip(chain, chain[1:]):
                assert b in dep.graph[a] and a in dep.graph[b]

    def test_sensor_locations_near_station(self):
        dep = build_deployment(60, 10, seed=3)
        for members in dep.groups.values():
            locs = [m.location for m in members]
            for a in locs:
                for b in locs:
                    assert a.distance_to(b) <= 4.0

    def test_deterministic_in_seed(self):
        a, b = small_scale(seed=9), small_scale(seed=9)
        assert a.graph == b.graph
        assert [s.sensor_id for s in a.sensors] == [s.sensor_id for s in b.sensors]
        c = small_scale(seed=10)
        assert links_of(a.graph) != links_of(c.graph)

    def test_too_few_relays_rejected(self):
        with pytest.raises(ValueError):
            build_deployment(51, 10)  # 50 sensor nodes + 1 relay < 10 heads

    def test_user_nodes_are_relays(self):
        dep = small_scale(seed=0)
        sensor_nodes = {s.node_id for s in dep.sensors}
        assert not set(dep.user_nodes) & sensor_nodes
        assert len(dep.user_nodes) == 10

    def test_sensor_by_id(self):
        dep = small_scale(seed=0)
        s = dep.sensors[3]
        assert dep.sensor_by_id(s.sensor_id) is s
        with pytest.raises(KeyError):
            dep.sensor_by_id("nope")


class TestRouting:
    def test_path_on_a_line(self):
        table = RoutingTable(line(5))
        assert table.next_hop("n0", "n4") == "n1"
        assert table.distance("n0", "n4") == 4
        assert table.path("n0", "n3") == ["n0", "n1", "n2", "n3"]
        assert table.distance("n2", "n2") == 0
        with pytest.raises(ValueError):
            table.next_hop("n1", "n1")

    def test_center_of_a_line_is_middle(self):
        assert graph_center(RoutingTable(line(7))) == "n3"

    def test_center_deterministic_tie_break(self):
        assert graph_center(RoutingTable(overlay([("a", "b")]))) == "a"

    def test_routes_cover_deployment(self):
        dep = small_scale(seed=1)
        table = RoutingTable(dep.graph)
        center = graph_center(table)
        for node in dep.graph:
            if node == center:
                continue
            path = table.path(node, center)
            assert path[0] == node and path[-1] == center
            assert len(path) - 1 == table.distance(node, center)


class TestValidate:
    """``validate``'s contract is ``ValueError`` for every overlay that
    is not a tree, the empty one included."""

    @pytest.mark.parametrize(
        "graph",
        [
            {},
            overlay([("a", "b"), ("c", "d")]),
            overlay([("a", "b"), ("b", "c"), ("c", "a")]),
            overlay([("a", "b"), ("a", "b")]),
            overlay([("a", "b"), ("b", "b")]),
            {"a": ["b"], "b": []},
            {"a": ["b"]},
        ],
        ids=["empty", "disconnected", "cyclic", "repeated", "self-loop",
             "one-way", "dangling"],
    )
    def test_non_trees_raise_value_error(self, graph):
        deployment = Deployment(graph, [], {}, [], {}, seed=0)
        with pytest.raises(ValueError):
            deployment.validate()
