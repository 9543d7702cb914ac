"""Filter-Split-Forward — the paper's contribution (Section V).

Subscription propagation (Algorithms 2-4): a subscription arriving at a
node is checked for *set subsumption* against the uncovered
subscriptions previously received from the same origin and over the
same attribute structure.  If the union of those covers it, it is
stored as covered and goes no further; otherwise it is stored
uncovered, projected onto each neighbour's advertised data space
(splitting exactly where advertisement paths diverge) and forwarded.
Because split fragments are compared again at every node, subsumption
against subscriptions over *different-but-overlapping* attribute sets —
undetectable by classic set filtering, cf. Table I — is detected where
the fragments become comparable (the paper's divide-and-conquer).

Event propagation (Algorithm 5): publish/subscribe forwarding — an
event travels a link at most once, iff it participates in a complex
match of some uncovered operator from that link's far end; the final,
exact matching happens at the user's node against the whole local
subscriptions.

Fig. 12's recall loss has two sources.  Union coverage itself: one
event may match one covering operator on slot a and its partner another
one on slot b, so neither has a complete match and neither forwards the
pair (exact filtering loses these too).  And the probabilistic set
filter may erroneously declare coverage (bounded by its configured
error probability).  ``coarsening`` optionally widens every forwarded
operator — the Section VI-F mitigation that trades traffic for recall;
the user-node matching stays exact, so coarsening never delivers
spurious results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..model.intervals import union_covers
from ..model.operators import CorrelationOperator
from ..network.network import Network
from ..network.node import LOCAL, Node
from ..protocols.base import Approach
from ..subsumption.setfilter import ProbabilisticSetFilter


@dataclass(frozen=True)
class FSFConfig:
    """Tuning knobs of the Filter-Split-Forward node.

    ``error_probability`` / ``gap_fraction`` parameterise the
    probabilistic set filter (Section V-B); ``coarsening`` widens every
    forwarded filter range by the given absolute amount (Section VI-F's
    "subscriptions can be made coarser" mitigation, 0 = off).
    """

    error_probability: float = 0.05
    gap_fraction: float = 0.10
    coarsening: float = 0.0
    exact_filtering: bool = False


class FilterSplitForwardNode(Node):
    """Processing node running Algorithms 1-5: set filtering, simple
    splitting, per-neighbour forwarding.

    ``include_covered``: an operator covered *at this node* still
    generates its result set from here (Section V-A's "generates the
    missing result set at the node where covering was detected");
    per-link dedup keeps the traffic shared.
    """

    per_neighbor = True
    include_covered = True

    def __init__(
        self, node_id: str, network: Network, config: FSFConfig | None = None
    ) -> None:
        super().__init__(node_id, network)
        self.config = config or FSFConfig()
        self.set_filter = ProbabilisticSetFilter(
            self.config.error_probability,
            self.config.gap_fraction,
            rng=network.sim.rng(f"setfilter:{node_id}"),
        )

    def on_crash(self) -> None:
        # A fresh filter over the same named stream: any learned filter
        # state is volatile, the draw sequence simply continues.
        self.set_filter = ProbabilisticSetFilter(
            self.config.error_probability,
            self.config.gap_fraction,
            rng=self.network.sim.rng(f"setfilter:{self.node_id}"),
        )

    # ------------------------------------------------------------------
    # subscription side: Algorithms 2, 3, 4
    # ------------------------------------------------------------------
    def handle_operator(
        self, operator: CorrelationOperator, origin: str, plan: object | None = None
    ) -> None:
        """Section VI-F's coarsening at the user's node, then the shared
        pipeline (Algorithm 4).  A planned piece keeps the ranges the
        compiler priced."""
        if self.config.coarsening > 0 and origin == LOCAL and plan is None:
            operator = operator.widened(self.config.coarsening)
        super().handle_operator(operator, origin, plan)

    def is_covered(self, operator, store, before=None) -> bool:
        """The set-filtering check of Algorithm 2, against the uncovered
        operators ``store`` held before rank ``before`` (arrival: all).

        Per Section V-B, every stream position (sensor, or attribute +
        location) is one attribute of the set-subsumption problem, so
        the stored uncovered operators from the same origin cover the
        new one iff, on *every* slot, the union of the ranges they
        already request contains the new range — this is what lets the
        Table I example drop s3 against {s1, s2}, which classic
        same-attribute-set filtering cannot do.  A stored operator with
        a slot the new one lacks is no candidate: it forwards an event
        only with a partner on that slot, so a stored {a, b, c} never
        stands in for a new {a, b}.  Union coverage still leaves a gap
        (see the module docstring): the covered operator generates its
        result set at this node (``include_covered``) only from events
        some covering operator forwarded.

        Each slot's candidates come from one bucket of the store's
        per-sensor index.  They are the intervals a walk of the whole
        store would collect, so the filter sees the same candidates and
        draws its samples exactly when that walk's filter would.
        """
        delta_t, delta_l = operator.delta_t, operator.delta_l
        slot_ids = {slot.slot_id for slot in operator.slots}
        covers_per_slot: list[list] = []
        for slot in operator.slots:
            slot_id, attribute, sensors = slot.slot_id, slot.attribute, slot.sensors
            candidates = [
                other.interval
                for record, other in store.candidates(slot, before)
                if other.slot_id == slot_id
                and other.attribute == attribute
                and other.sensors >= sensors
                and record.operator.delta_t >= delta_t
                and record.operator.delta_l >= delta_l
                and all(s.slot_id in slot_ids for s in record.operator.slots)
            ]
            if not candidates:
                return False
            covers_per_slot.append(candidates)
        if self.config.exact_filtering:
            return all(
                union_covers(candidates, slot.interval)
                for slot, candidates in zip(operator.slots, covers_per_slot)
            )
        return self.set_filter.is_product_subsumed(
            operator.as_box(), covers_per_slot
        )


def filter_split_forward_approach(config: FSFConfig | None = None) -> Approach:
    """The paper's approach, ready for the experiment runner."""
    return Approach(
        key="fsf",
        name="Filter-Split-Forward",
        subscription_filtering="Set filtering",
        subscription_splitting="Simple",
        event_propagation="Per neighbor",
        make_node=functools.partial(FilterSplitForwardNode, config=config),
    )
