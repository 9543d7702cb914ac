"""The overlay's own BFS against networkx, kept here as the reference.

``Deployment.graph`` is a plain adjacency mapping and one breadth-first
walk (``repro.network.topology.bfs``) answers every question the system
asks of it: next hops, distances and paths (``RoutingTable``, which is
also the placement compiler's tree path), the centralized baseline's
server (``graph_center``), ``Deployment.diameter``, the cloud uplink of
``tiered_specs`` and ``validate``'s tree check.  Each answer is compared
with networkx on hypothesis-drawn random trees, the four paper
deployments and Figure 3's network.  networkx is a test dependency
only; ``src/`` never imports it (``tests/test_no_networkx.py``).
"""

from __future__ import annotations

from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro.placement.compiler as compiler
from repro.experiments.tables import fig3_deployment
from repro.network.routing import RoutingTable, graph_center
from repro.network.topology import (
    CLOUD_SPEC,
    Deployment,
    Overlay,
    add_link,
    check_tree,
    large_network,
    large_sources,
    medium_scale,
    small_scale,
    tiered_specs,
)
from repro.placement import compile_placement
from repro.workload.scenarios import PLACEMENT


def reference_center(reference: nx.Graph) -> str:
    """The node with the least total distance to all others, the
    lowest id on ties, from networkx's all-pairs lengths."""
    lengths = dict(nx.all_pairs_shortest_path_length(reference))
    return min(sorted(reference), key=lambda node: sum(lengths[node].values()))


def reference_cloud(reference: nx.Graph, relays) -> str:
    eccentricity = nx.eccentricity(reference)
    return min((eccentricity[node], node) for node in relays)[1]


def bare(graph: Overlay, relays) -> Deployment:
    return Deployment(graph, [], {}, list(relays), {}, seed=0)


def assert_agrees(deployment: Deployment) -> None:
    """Every overlay answer equals networkx's on ``deployment``."""
    graph = deployment.graph
    ref = nx.Graph(graph)
    check_tree(graph)
    assert nx.is_tree(ref)
    table = RoutingTable(graph)
    paths = dict(nx.all_pairs_shortest_path(ref))
    for src in graph:
        for dst in graph:
            path = paths[src][dst]
            assert table.path(src, dst) == path
            assert table.distance(src, dst) == len(path) - 1
            if src != dst:
                assert table.next_hop(src, dst) == path[1]
    assert graph_center(table) == reference_center(ref)
    assert deployment.diameter() == nx.diameter(ref)
    specs = tiered_specs(deployment)
    cloud = [node for node, spec in specs.items() if spec == CLOUD_SPEC]
    assert cloud == [reference_cloud(ref, deployment.relay_nodes)]


@st.composite
def trees(draw) -> Overlay:
    """A random tree on shuffled labels, its links added in random order."""
    n = draw(st.integers(1, 24))
    labels = draw(st.permutations([f"v{i:02d}" for i in range(n)]))
    links = [(labels[i], labels[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    links = draw(st.permutations(links))
    graph: Overlay = {labels[0]: []}
    for a, b in links:
        if draw(st.booleans()):
            a, b = b, a
        add_link(graph, a, b)
    return graph


@settings(max_examples=150, deadline=None)
@given(trees(), st.data())
def test_random_trees_agree_with_networkx(graph, data):
    relays = data.draw(
        st.lists(st.sampled_from(sorted(graph)), min_size=1, unique=True)
    )
    assert_agrees(bare(graph, relays))


@settings(max_examples=150, deadline=None)
@given(trees(), st.data())
def test_tree_check_agrees_with_networkx(graph, data):
    """Adding a link (a cycle, or a repeat) or dropping one (a split)
    must fail the check exactly when networkx says "not a tree"."""
    nodes = sorted(graph)
    edit = data.draw(st.sampled_from(["add", "drop", "keep"]))
    if edit == "add":
        a, b = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
        add_link(graph, a, b)
    elif edit == "drop" and len(nodes) > 1:
        a = data.draw(st.sampled_from([n for n in nodes if graph[n]]))
        b = data.draw(st.sampled_from(graph[a]))
        graph[a].remove(b)
        graph[b].remove(a)
    # A multigraph, so that a repeated link or a self-loop (listed
    # twice at its node) counts as the extra link it is.
    multi = nx.MultiGraph()
    multi.add_nodes_from(graph)
    for a in graph:
        multi.add_edges_from((a, b) for b in graph[a] if a < b)
        multi.add_edges_from([(a, a)] * (graph[a].count(a) // 2))
    if nx.is_tree(multi):
        check_tree(graph)
    else:
        with pytest.raises(ValueError):
            check_tree(graph)


@pytest.mark.parametrize(
    "factory", [small_scale, medium_scale, large_network, large_sources]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_paper_deployments_agree_with_networkx(factory, seed):
    assert_agrees(factory(seed))


def test_fig3_network_agrees_with_networkx():
    assert_agrees(fig3_deployment())


def test_compiled_plans_agree_with_networkx_paths(monkeypatch):
    """The compiler lowers plans along ``RoutingTable.path``; with
    networkx's shortest paths in its place every plan is the same."""
    scenario = replace(PLACEMENT, placement="compiled")
    deployment = scenario.deployment()
    program = scenario.program(12)
    compiled = program.with_prefix(12).compile(deployment, program.source(deployment))
    plans = compile_placement(deployment, compiled.admissions, compiled.events)
    assert plans == compiled.plans and len(plans) == 12

    class NetworkxRoutes:
        def __init__(self, graph: Overlay) -> None:
            self.reference = nx.Graph(graph)

        def path(self, a: str, b: str) -> list[str]:
            return nx.shortest_path(self.reference, a, b)

    monkeypatch.setattr(compiler, "RoutingTable", NetworkxRoutes)
    assert compile_placement(deployment, compiled.admissions, compiled.events) == plans
