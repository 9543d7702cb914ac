"""Naive approach — the lower-bound baseline (Section VI).

"Forwards all received queries (no filtering) and constructs result
sets per query (no optimization for result set overlap)."  Splitting is
still the natural *simple* splitting along diverging advertisement
paths (Table II), so the comparison isolates the value of filtering and
of shared event dissemination rather than of routing.
"""

from __future__ import annotations

from ..model.events import SimpleEvent
from ..model.operators import CorrelationOperator
from ..network.network import Network
from ..network.node import Node
from ..protocols.base import Approach


class NaiveNode(Node):
    """Stores and forwards everything; one result stream per operator."""

    def handle_operator(self, operator: CorrelationOperator, origin: str) -> None:
        self.store_for(origin).add(operator, covered=False)
        self.forward_split(operator, origin)

    def handle_event(
        self, event: SimpleEvent, origin: str, streams: tuple[str, ...]
    ) -> None:
        hits = self.ingest(event)
        if not hits:
            return  # dropped, or no operator here has a match
        self.deliver_local_matches(hits)
        # One result set per stored operator; overlapping subscriptions
        # pay once each (the redundancy the paper's metrics expose).
        self.stream_forward(hits, sender=origin, include_covered=False)


def naive_approach() -> Approach:
    return Approach(
        key="naive",
        name="Naive approach",
        subscription_filtering="None",
        subscription_splitting="Simple",
        event_propagation="Full result sets",
        make_node=NaiveNode,
    )
