"""Distributed operator placement (Section III-A).

Classic operator-placement techniques build global query plans; the
paper's adaptation keeps only local interaction: query plans follow the
reverse advertisement paths (so streams are processed on nodes that
would relay them anyway), operators are split where those paths
diverge, and *pair-wise* covering detection drops operators entirely
covered by a previously stored one.

Result sets remain per-operator ("each operator generates its own
result set") — this is the redundancy the event-load experiments
penalise.  An operator covered at some node still receives its own
result stream *from that node onward*: the covering operator's stream
reaches the coverage node, where the covered operator's (smaller)
stream is re-derived and forwarded separately toward its user — the
"placing the more restrictive operator downstream from the covering
operator" construction of Section III-A.
"""

from __future__ import annotations

from ..network.node import Node
from ..protocols.base import Approach
from ..subsumption.pairwise import pairwise_covered


class OperatorPlacementNode(Node):
    """Pair-wise covering + simple splitting + per-operator streams.

    A covered operator is stored, not forwarded; its result stream is
    regenerated here from the covering operator's stream and forwarded
    toward its user.
    """

    is_covered = staticmethod(pairwise_covered)


def operator_placement_approach() -> Approach:
    return Approach(
        key="operator_placement",
        name="Distributed operator placement",
        subscription_filtering="Pair wise",
        subscription_splitting="Simple",
        event_propagation="Per subscription",
        make_node=OperatorPlacementNode,
    )
