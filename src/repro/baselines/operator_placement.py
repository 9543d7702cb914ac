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

from ..model.events import SimpleEvent
from ..model.operators import CorrelationOperator
from ..network.network import Network
from ..network.node import Node
from ..protocols.base import Approach
from ..subsumption.pairwise import find_cover


class OperatorPlacementNode(Node):
    """Pair-wise covering + simple splitting + per-operator streams."""

    def handle_operator(self, operator: CorrelationOperator, origin: str) -> None:
        store = self.store_for(origin)
        cover = find_cover(operator, store.same_signature_uncovered(operator))
        if cover is not None:
            # Covered: stored, not forwarded — its result stream will be
            # regenerated here from the covering operator's stream.
            store.add(operator, covered=True)
            return
        store.add(operator, covered=False)
        self.forward_split(operator, origin)

    def handle_event(
        self, event: SimpleEvent, origin: str, streams: tuple[str, ...]
    ) -> None:
        hits = self.ingest(event)
        if not hits:
            return  # dropped, or no operator here has a match
        self.deliver_local_matches(hits)
        # include_covered=True: operators covered at this node generate
        # their own streams from here toward their users.
        self.stream_forward(hits, sender=origin, include_covered=True)


def operator_placement_approach() -> Approach:
    return Approach(
        key="operator_placement",
        name="Distributed operator placement",
        subscription_filtering="Pair wise",
        subscription_splitting="Simple",
        event_propagation="Per subscription",
        make_node=OperatorPlacementNode,
    )
