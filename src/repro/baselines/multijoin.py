"""Distributed multi-join processing (Section III-B).

The paper distributes Chandramouli & Yang's binary-join technique [7]:

* subscriptions travel *whole* from the user along the common reverse
  advertisement path, pair-wise covering filtered at every hop;
* at the **first node where the path diverges** the multi-join is split
  into **binary joins** — each stream becomes the *main* of one binary
  join sanctioned by a *filtering* stream (ring pairing) — and the
  individual simple filters are sent onward to the data sources ("the
  divergence node acts in a way as the centralized server" of [7]);
* raw events flow from the sensors to the divergence node over shared
  single-attribute streams (one unit per event per link);
* the divergence node forwards a main event toward the user as soon as
  its filtering stream sanctions it — a *pairwise* check that admits
  **false positives** for joins over three or more attributes, which
  "are forwarded all the way to the user and create additional network
  traffic";
* above the divergence node, relays forward by value-filter acceptance
  against the stored whole multi-joins (publish/subscribe, per-link
  deduplicated), never re-running the full correlation — false
  positives reach the user by design.  Cross-subscription leakage at
  relays (an event sanctioned for one subscription passing another's
  value filter) adds further false positives but never loses a true
  result; recall stays 100%.

Every uncovered stored operator carries a *role* describing its job on
the event path: ``transit`` (whole multi-join, relayed by its ring
joins' pairwise checks), ``split`` (whole multi-join at its divergence
node — inert, its binary joins do the work), ``join`` (binary join
evaluated here), ``leaf`` (simple filter pulling raw events toward the
divergence node).  Only what the event path evaluates holds a matcher:
the binary joins stored by the ``split`` arm (read as ``join``) and the
ring joins a relay retains on first use.  Whole multi-joins and simple
filters are stored without one — nothing reads their hits.
"""

from __future__ import annotations

from typing import Any

from ..matching import HitMap
from ..model.events import SimpleEvent
from ..model.operators import CorrelationOperator
from ..network.network import Network
from ..network.node import (
    LOCAL,
    LifecycleSeq,
    Node,
    StoredOperator,
    SubscriptionStore,
)
from ..protocols.base import Approach
from ..subsumption.pairwise import find_cover, pairwise_covered

TRANSIT = "transit"
SPLIT = "split"
JOIN = "join"
LEAF = "leaf"


class MultiJoinNode(Node):
    """Binary-join splitting at divergence nodes, roles on the event path."""

    # The ring/role state machine is built inside handle_operator;
    # plan-routed pieces would bypass it and orphan the dispatch ledger.
    executes_plans = False
    is_covered = staticmethod(pairwise_covered)

    def __init__(self, node_id: str, network: Network) -> None:
        super().__init__(node_id, network)
        self.roles: dict[str, str] = {}
        # Ring joins of the transit operators as ``[join, matcher]``
        # entries, filled on first use.  A join's matcher is retained
        # when the join first accepts an event: a join no stream here
        # ever feeds costs no matcher.
        self._ring_cache: dict[str, list[list[Any]]] = {}
        # The dispatch ledger: per origin, the simple filters considered
        # for dispatch toward the sensors, stored covered when an earlier
        # dispatched filter already pulls their stream (single-attribute
        # streams are shared).  Cancellation of a cover re-dispatches.
        self._dispatched_filters: dict[str, SubscriptionStore] = {}

    def on_crash(self) -> None:
        # Roles, ring pairings and the dispatch ledger all derive from
        # the stored operators, which a crash just dropped.  The ring
        # matchers' references went with the engine crash() replaced.
        self.roles = {}
        self._ring_cache = {}
        self._dispatched_filters = {}

    # ------------------------------------------------------------------
    # subscription side
    # ------------------------------------------------------------------
    def handle_operator(
        self, operator: CorrelationOperator, origin: str, plan: object | None = None
    ) -> None:
        # The shared pipeline, except that a whole multi-join or a
        # simple filter holds no matcher: the event path reads neither's
        # hits (see the module docstring).
        store = self.store_for(origin)
        covered = self.is_covered(operator, store)
        record = store.add(operator, covered, matched=False)
        if not covered:
            self.on_operator_uncovered(record, origin, store)

    def on_operator_uncovered(
        self,
        record: StoredOperator,
        origin: str,
        store: SubscriptionStore,
        plan: object | None = None,
    ) -> None:
        """Place an (already stored) uncovered operator on the event path.

        Runs at arrival and again when cancellation repair restores a
        covered operator: assigns its role and forwards/splits exactly
        as the arrival branch of the protocol would.
        """
        operator = record.operator
        if operator.is_simple:
            self.roles[operator.op_id] = LEAF
            self.forward_split(operator, origin)
            return
        if operator.is_binary_join:
            # Only reachable via repair: a binary join stored covered at
            # its divergence node whose cover was cancelled.  The SPLIT
            # arm below stored it with its matcher.
            self.roles[operator.op_id] = JOIN
            self._dispatch_filters(operator, origin)
            return
        directions = self.ads.split(
            operator.sensors, None if origin == LOCAL else origin
        )
        if len(directions) == 1 and directions[0][0] != LOCAL:
            # Single onward path: keep the multi-join whole.
            self.roles[operator.op_id] = TRANSIT
            ((neighbor, sensors),) = directions
            piece = operator.project_sensors(sensors)
            if piece is not None:
                self.send_operator(neighbor, piece)
            return
        # First divergence: split into binary joins here.
        self.roles[operator.op_id] = SPLIT
        for join in operator.binary_joins():
            seq = self._seq_source.next()
            covered = self.is_covered(join, store, seq)
            store.add(join, covered, seq=seq)
            if not covered:
                self.roles[join.op_id] = JOIN
                self._dispatch_filters(join, origin)

    def _dispatch_filters(self, join: CorrelationOperator, origin: str) -> None:
        """Send the join's individual simple filters toward the sensors,
        each unless the ledger holds an earlier dispatched cover."""
        ledger = self._dispatched_filters.get(origin)
        if ledger is None:
            ledger = self._dispatched_filters[origin] = SubscriptionStore(
                self.matching, self._seq_source
            )
        for slot in join.slots:
            simple = join.project([slot.slot_id])
            seq = self._seq_source.next()
            covered = _filter_covered(simple, ledger, seq)
            ledger.add(simple, covered, seq=seq, matched=False)
            if not covered:
                self.forward_split(simple, origin)

    # ------------------------------------------------------------------
    # query cancellation
    # ------------------------------------------------------------------
    def handle_unsubscribe(self, sub_id: str, origin: str) -> None:
        ledger = self._dispatched_filters.get(origin)
        removed = ledger is not None and ledger.remove_subscription(sub_id)
        super().handle_unsubscribe(sub_id, origin)
        if removed:
            # Re-dispatch the filters whose cover was removed.
            for record in ledger.records():
                if record.covered and not _filter_covered(
                    record.operator, ledger, record.seq
                ):
                    ledger.uncover(record)
                    self.forward_split(record.operator, origin)

    def on_operator_removed(self, operator: CorrelationOperator) -> None:
        """Clear the operator's role and release its ring's matchers."""
        self.roles.pop(operator.op_id, None)
        for join, matcher in self._ring_cache.pop(operator.op_id, ()):
            if matcher is not None:
                self.matching.release(join)

    # ------------------------------------------------------------------
    # event side
    # ------------------------------------------------------------------
    def handle_event(
        self, event: SimpleEvent, origin: str, streams: tuple[str, ...]
    ) -> None:
        hits = self.ingest(event)
        if hits is None:
            return
        # No early return on an empty map: local delivery and the LEAF
        # role go by value-filter acceptance, not by a match.
        self._deliver_local(event, hits)
        engine = self.matching
        for neighbor in self.neighbors:
            if neighbor == origin:
                continue
            store = self.stores.get(neighbor)
            if store is None:
                continue
            outgoing: dict = {}
            for operator, matcher in store.matched_for_sensor(event.sensor_id):
                role = self.roles[operator.op_id]
                if role == SPLIT:
                    continue  # its binary joins act instead
                if role == LEAF:
                    # Raw stream toward the divergence node: value
                    # filter only — joins happen there, not below.
                    if operator.accepts_some(event):
                        outgoing[event.key] = event
                    continue
                # JOIN (a binary join evaluated here) or TRANSIT (a
                # whole multi-join relayed toward the user): sanction
                # main events by their ring-filtering stream.  Transit
                # relays re-run the same *pairwise* checks over what
                # reaches them — false positives of the binary-join
                # approximation keep flowing to the user, true matches
                # always pass, and nothing leaks across subscriptions.
                if role == JOIN:
                    joins: list[list[Any]] = [[operator, matcher]]
                else:
                    ring = self._ring_cache.get(operator.op_id)
                    if ring is None:
                        ring = self._ring_cache[operator.op_id] = [
                            [join, None] for join in operator.binary_joins()
                        ]
                    joins = ring
                for entry in joins:
                    join, join_matcher = entry
                    if join_matcher is None:
                        if not join.accepts_some(event):
                            continue
                        # Retained once, released in on_operator_removed.
                        # The engine matched this arrival before the
                        # matcher existed, so this one read is a sweep.
                        join_matcher = entry[1] = engine.retain(join)
                        participants = join_matcher.matches_involving(event)
                    else:
                        participants = hits.get(join_matcher)
                    if not participants:
                        continue
                    assert join.main_slot is not None
                    for member in participants.get(join.main_slot, ()):
                        outgoing[member.key] = member
            for key, member in sorted(outgoing.items()):
                if not self.was_sent(key, neighbor):
                    self.mark_sent(key, neighbor)
                    self.send_event(neighbor, member)

    def _deliver_local(self, event: SimpleEvent, hits: HitMap) -> None:
        """User-side delivery: value-filter acceptance (false positives
        included, as the paper describes), plus exact complex matching
        for the complex-delivery counter."""
        if self._local_roots:  # most nodes serve no user
            for root, _ in self._local_roots.matched_for_sensor(event.sensor_id):
                if root.accepts_some(event):
                    self.network.delivery.record_events(root.subscription_id, [event])
        self.deliver_local_matches(hits)


def _filter_covered(
    simple: CorrelationOperator, ledger: SubscriptionStore, before: LifecycleSeq
) -> bool:
    """The ledger's rule: one filter dispatched before rank ``before``
    covers ``simple``.  Pair-wise, but not :func:`pairwise_covered`:
    a cover's Δt and Δl need only be at least as loose."""
    entries = ledger.candidates(simple.slots[0], before)
    return find_cover(simple, (record.operator for record, _ in entries)) is not None


def multijoin_approach() -> Approach:
    return Approach(
        key="multijoin",
        name="Distributed multi-join",
        subscription_filtering="Pair wise",
        subscription_splitting="Binary joins",
        event_propagation="Per neighbor",
        make_node=MultiJoinNode,
    )
