"""Tables I and II, and the Figure 3 walkthrough scenario.

Table I is the motivating subsumption example: s3 cannot be filtered by
classic same-attribute-set checking, yet the filter-split-forward
pipeline drops it once split fragments become comparable.  The
walkthrough builds the 6-node network of Figure 3, injects the three
subscriptions at one node and reports where operators were stored,
covered and forwarded — reproducing the paper's narrative that nothing
of s3 travels past the divergence node.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.filter_split_forward import filter_split_forward_approach
from ..model.advertisements import Advertisement
from ..model.locations import Location
from ..model.subscriptions import IdentifiedSubscription
from ..network.network import Network
from ..network.node import LOCAL
from ..network.topology import Deployment, Overlay, SensorPlacement, add_link
from ..model.attributes import AttributeType
from ..model.intervals import Interval
from ..protocols.registry import render_table_ii
from ..sim import Simulator


TABLE_I_ROWS = (
    ("s1", "50 < a < 80", "10 < b < 30", ""),
    ("s2", "", "20 < b < 40", "2 < c < 20"),
    ("s3", "55 < a < 75", "15 < b < 35", "5 < c < 15"),
)


def table_i_subscriptions(delta_t: float = 5.0) -> list[IdentifiedSubscription]:
    """The three subscriptions of Table I over sensors a, b, c."""
    return [
        IdentifiedSubscription.from_ranges(
            "s1", {"a": ("t", 50, 80), "b": ("t", 10, 30)}, delta_t
        ),
        IdentifiedSubscription.from_ranges(
            "s2", {"b": ("t", 20, 40), "c": ("t", 2, 20)}, delta_t
        ),
        IdentifiedSubscription.from_ranges(
            "s3",
            {"a": ("t", 55, 75), "b": ("t", 15, 35), "c": ("t", 5, 15)},
            delta_t,
        ),
    ]


def render_table_i() -> str:
    header = ("Subscriptions", "Sensor a", "Sensor b", "Sensor c")
    rows = [header, *TABLE_I_ROWS]
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    lines = ["Table I: subscription subsumption example",
             "=" * 42]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_table_2() -> str:
    return "Table II: implemented approaches\n================================\n" + render_table_ii()


def fig3_deployment() -> Deployment:
    """The 6-node network of Figure 3.

    n6 hosts the users; sensors a, b sit behind n4 (via n1, n2) and
    sensor c behind n3; n5 is the junction where paths toward {a, b}
    and {c} diverge.
    """
    graph: Overlay = {}
    links = [("n6", "n5"), ("n5", "n4"), ("n4", "n1"), ("n4", "n2"), ("n5", "n3")]
    for a, b in links:
        add_link(graph, a, b)
    attr = AttributeType("t", Interval(-1000.0, 1000.0))
    sensors = [
        SensorPlacement("a", attr, Location(0.0, 0.0), "n1", 0),
        SensorPlacement("b", attr, Location(1.0, 0.0), "n2", 0),
        SensorPlacement("c", attr, Location(5.0, 0.0), "n3", 1),
    ]
    groups = {0: sensors[:2], 1: sensors[2:]}
    return Deployment(
        graph, sensors, groups, ["n4", "n5", "n6"], {0: "n4", 1: "n5"}, seed=0
    )


@dataclass
class Fig3Walkthrough:
    """State of the Figure 3 network after the three subscriptions."""

    network: Network
    stored: dict[str, list[str]]
    covered: dict[str, list[str]]
    subscription_units: int

    def render(self) -> str:
        lines = [
            "Figure 3 walkthrough: Table I subscriptions on the 6-node network",
            "=" * 66,
        ]
        for node_id in sorted(self.stored):
            lines.append(
                f"{node_id}: stored={self.stored[node_id]} "
                f"covered={self.covered[node_id]}"
            )
        lines.append(f"total subscription units forwarded: {self.subscription_units}")
        return "\n".join(lines)


def run_fig3_walkthrough() -> Fig3Walkthrough:
    """Inject Table I's subscriptions at n6 and report operator placement.

    The outcome matches the paper's Figure 3: s3 is stored at the node
    where it splits but none of its fragments travel toward the sensors.
    """
    deployment = fig3_deployment()
    network = Network(deployment, Simulator(seed=0))
    approach = filter_split_forward_approach()
    approach.populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    for subscription in table_i_subscriptions():
        network.register_subscription("n6", subscription)
        network.run_to_quiescence()
    stored: dict[str, list[str]] = {}
    covered: dict[str, list[str]] = {}
    for node_id, node in sorted(network.nodes.items()):
        stored[node_id] = sorted(
            op.op_id for s in node.stores.values() for op in s.uncovered
        )
        covered[node_id] = sorted(
            op.op_id for s in node.stores.values() for op in s.covered
        )
    return Fig3Walkthrough(
        network, stored, covered, network.meter.subscription_units
    )
