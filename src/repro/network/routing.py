"""Shortest-path routing over the acyclic overlay.

Only the centralized baseline needs global routes (subscribers unicast
to the central server, the server unicasts results back), and the
placement compiler prices and lowers plans along overlay paths; the
four distributed approaches route purely on the reverse advertisement /
subscription paths.  In a tree the shortest path is the unique path, so
one BFS per destination yields exact next-hop and distance tables.
"""

from __future__ import annotations

from .topology import Overlay, bfs


class RoutingTable:
    """Unique-path routing on a tree (or shortest paths on any graph)."""

    def __init__(self, graph: Overlay) -> None:
        # BFS tree rooted at each destination: a node's parent is its
        # next hop toward the destination, its depth the hop count.
        self._toward = {target: bfs(graph, target) for target in graph}

    def next_hop(self, src: str, dst: str) -> str:
        """The neighbour of ``src`` on the unique path to ``dst``."""
        if src == dst:
            raise ValueError("no next hop from a node to itself")
        return self._toward[dst][src][0]

    def distance(self, src: str, dst: str) -> int:
        """Hop count of the shortest path."""
        return self._toward[dst][src][1]

    def path(self, src: str, dst: str) -> list[str]:
        """The full node sequence from ``src`` to ``dst`` (inclusive)."""
        tree = self._toward[dst]
        hops = [src]
        here = src
        while here != dst:
            here = tree[here][0]
            hops.append(here)
        return hops


def graph_center(routing: RoutingTable) -> str:
    """The node with minimum total distance to all others.

    The paper's centralized baseline sends everything to "the node with
    the minimum pairwise distance to all other nodes"; ties break on the
    node id so runs are deterministic.  Distances are symmetric, so a
    node's total is the depth sum of the BFS tree rooted at it.
    """
    return min(
        (sum(depth for _, depth in tree.values()), node)
        for node, tree in routing._toward.items()
    )[1]
