"""The processing-node base class — storage layout of Figure 2 plus the
machinery every approach shares.

Each node keeps

* ``ads`` — advertisements per neighbour (``DSA_m``) and local sensors;
* ``stores[origin]`` — subscriptions/operators received from each
  neighbour (``S_m``) or from local users (``S_local``), split into the
  *uncovered* set (candidates for forwarding) and the *covered* set
  (redundant for forwarding, still defining correlation needs);
* ``store`` — the shared set ``U`` of unexpired simple events, ordered
  by timestamp;
* per-event forwarded-to flags (the ``sendTo`` array of Algorithm 5),
  so no data unit crosses the same link twice in the same stream.

The operator pipeline (filter, store, split and forward) and the event
pipeline (store and match, deliver, forward) run here, once; the
subclasses under ``repro.core`` (the Filter-Split-Forward contribution)
and ``repro.baselines`` state what Table II lists — the coverage rule,
the split, the two event-propagation constants.
"""

from __future__ import annotations

from bisect import bisect_left, insort_right
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Sequence

from ..matching import HitMap, MatchingEngine
from ..model.advertisements import Advertisement, AdvertisementTable
from ..model.events import EventKey, SimpleEvent
from ..model.operators import CorrelationOperator, Slot, root_operator
from ..model.subscriptions import Subscription
from .eventstore import EventStore
from .messages import (
    AdvertisementMessage,
    EventMessage,
    Message,
    OperatorMessage,
    UnsubscribeMessage,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

LOCAL = AdvertisementTable.LOCAL
"""Origin marker for locally attached sensors / local users."""

_PRUNE_EVERY = 64
"""Lazy store-pruning cadence (events between sweeps)."""


LifecycleSeq = tuple[int, ...]
"""Arrival rank of a stored/dispatched operator record.

Tuples order lexicographically: plain arrivals rank ``(major, minor)``,
entries re-derived during cancellation repair extend the rank of the
record they derive from (``rank + (minor,)``), so a repaired store keeps
exactly the arrival order the counterfactual never-subscribed run would
have produced — which is what the covered/uncovered repair relies on.
"""


class SeqSource:
    """Per-node allocator of :data:`LifecycleSeq` ranks."""

    __slots__ = ("_major", "_prefix", "_minor")

    def __init__(self) -> None:
        self._major = 0
        self._prefix: LifecycleSeq = ()
        self._minor = 0

    def begin_arrival(self, prefix: LifecycleSeq | None = None) -> None:
        """Open a new allocation context.

        ``None`` starts the next top-level arrival; a prefix re-opens
        the context *inside* an existing record's rank (cancellation
        repair re-deriving entries at their counterfactual position).
        """
        if prefix is None:
            self._major += 1
            self._prefix = (self._major,)
        else:
            self._prefix = prefix
        self._minor = 0

    def next(self) -> LifecycleSeq:
        self._minor += 1
        return self._prefix + (self._minor,)


def insert_by_seq(items: list, item, rank=attrgetter("seq")) -> None:
    """Place a seq-ranked item at its arrival-order position: plain
    arrivals append, entries a repair derives inside an earlier record's
    rank go where the before-only coverage checks expect them."""
    if items and rank(item) < rank(items[-1]):
        insort_right(items, item, key=rank)
    else:
        items.append(item)


@dataclass(slots=True, eq=False)
class StoredOperator:
    """One stored operator record: rank, coverage and plan flags, and
    the matcher (None when no event path reads its hits)."""

    seq: LifecycleSeq
    operator: CorrelationOperator
    covered: bool
    planned: bool
    matcher: object | None


class StreamGroup:
    """The records of one store that share a matcher: one entry of an
    arrival's hit map answers all of them.  Each op id is one result
    stream, covered or not (a covered operator's stream starts at the
    node that found its cover); the ids are kept as sets so the stream
    lane settles "which of these streams still owe this event on this
    link" in one set difference."""

    __slots__ = ("records", "every", "planned")

    def __init__(self) -> None:
        self.records: list[StoredOperator] = []
        self.every: set[str] = set()
        # Stored under a compiled placement plan (see handle_operator).
        self.planned: frozenset[str] = frozenset()

    def add(self, record: StoredOperator) -> None:
        op_id = record.operator.op_id
        self.records.append(record)
        self.every.add(op_id)
        if record.planned:
            self.planned |= {op_id}

    def rescan(self) -> None:
        """Rebuild the sets after records left the group."""
        records = self.records
        self.every = {r.operator.op_id for r in records}
        self.planned = frozenset(r.operator.op_id for r in records if r.planned)


IndexEntry = tuple[StoredOperator, Slot]  # an uncovered record's slot


def _entry_rank(entry: IndexEntry) -> LifecycleSeq:
    return entry[0].seq


def _unfile(items: list, record: StoredOperator, owner=lambda item: item) -> None:
    """Delete ``record`` from a list kept in arrival rank: the record
    itself, or (``owner`` the entry's record) its entries in one index
    bucket — found by bisection, among the items of its rank."""
    i = j = bisect_left(items, record.seq, key=lambda item: owner(item).seq)
    while j < len(items) and owner(items[j]).seq == record.seq:
        j += 1
    items[i:j] = [item for item in items[i:j] if owner(item) is not record]


def _file(index: dict[str, list[IndexEntry]], record: StoredOperator) -> None:
    """Enter an uncovered record under each sensor, at its rank."""
    for sensor_id in sorted(record.operator.sensors):
        for slot in record.operator.slots:
            if sensor_id in slot.sensors:
                entry = (record, slot)
                insert_by_seq(index.setdefault(sensor_id, []), entry, _entry_rank)


class SubscriptionStore:
    """``S_m`` of Figure 2: operators received from one origin.

    Storing an operator also retains its matcher (one the engine may
    share with every other operator asking the same question) — from
    then on every ingested event is indexed as it arrives instead of
    being rediscovered by scans; removing the operator again (query
    cancellation) releases the reference.  A record holds a matcher
    only if an event path reads that matcher's hits: a node class that
    routes a record on something else (multi-join's whole operators and
    leaf filters, forwarded on value-filter acceptance) stores it with
    ``matched=False`` — no matcher, no index entry, no sweep.

    ``streams`` indexes the matched records by matcher, for the event
    paths' hit-map walk; ``_index`` files the uncovered records' slots
    by sensor in arrival rank, for the coverage rules
    (:meth:`candidates`), built at its first read: naive and the centre
    never read it.  :meth:`add`, :meth:`remove_subscription` and
    :meth:`uncover` are the only writers of both and of ``covered``.

    Records keep their arrival rank (:data:`LifecycleSeq`) so that
    cancellation repair can re-evaluate coverage decisions against
    exactly the candidates each operator would have seen had the
    cancelled subscription never existed.
    """

    def __init__(
        self,
        engine: MatchingEngine,
        seq_source: SeqSource | None = None,
    ) -> None:
        self._records: list[StoredOperator] = []
        # subscription id -> its records, in arrival rank (retirement).
        self._by_sub: dict[str, list[StoredOperator]] = {}
        # sensor id -> uncovered (record, slot) entries; None until read.
        self._index: dict[str, list[IndexEntry]] | None = None
        self.streams: dict[object, StreamGroup] = {}
        self._engine = engine
        self._seq_source = seq_source if seq_source is not None else SeqSource()

    @property
    def uncovered(self) -> list[CorrelationOperator]:
        """Uncovered operators in arrival order (forwarding candidates)."""
        return [r.operator for r in self._records if not r.covered]

    @property
    def covered(self) -> list[CorrelationOperator]:
        return [r.operator for r in self._records if r.covered]

    def add(
        self,
        operator: CorrelationOperator,
        covered: bool,
        seq: LifecycleSeq | None = None,
        planned: bool = False,
        matched: bool = True,
    ) -> StoredOperator:
        """Store an operator; ``seq`` overrides the rank (repair only),
        ``matched=False`` stores it without a matcher."""
        # Resolve the operator's matcher once at store time; the event
        # hot path then queries it with zero lookup layers.
        matcher = self._engine.retain(operator) if matched else None
        seq = seq if seq is not None else self._seq_source.next()
        record = StoredOperator(seq, operator, covered, planned, matcher)
        insert_by_seq(self._records, record)
        insert_by_seq(self._by_sub.setdefault(operator.subscription_id, []), record)
        if not covered and self._index is not None:
            _file(self._index, record)
        if matched:
            group = self.streams.get(record.matcher)
            if group is None:
                group = self.streams[record.matcher] = StreamGroup()
            group.add(record)
        return record

    def uncover(self, record: StoredOperator) -> None:
        """Cancellation repair: a covered record lost its cover."""
        record.covered = False
        if self._index is not None:
            _file(self._index, record)

    def _built_index(self) -> dict[str, list[IndexEntry]]:
        if self._index is None:
            self._index = {}
            for record in self._records:
                if not record.covered:
                    _file(self._index, record)
        return self._index

    def has_operator(self, operator: CorrelationOperator) -> bool:
        """Whether a record with this operator's id is stored: the
        reliability layer's guard against re-handling a soft-state
        re-offer (or a redundant copy) of an operator already held."""
        siblings = self._by_sub.get(operator.subscription_id, ())
        return any(r.operator.op_id == operator.op_id for r in siblings)

    def remove_subscription(self, sub_id: str) -> list[StoredOperator]:
        """Drop every record of ``sub_id``, in arrival rank; releases
        retained matchers.  Reads only those records: each is found in
        the rank-ordered lists by bisection."""
        removed = self._by_sub.pop(sub_id, None)
        if removed is None:
            return []
        index = self._index
        for record in removed:
            _unfile(self._records, record)
            if index is not None and not record.covered:
                for sensor_id in sorted(record.operator.sensors):
                    bucket = index[sensor_id]
                    _unfile(bucket, record, itemgetter(0))
                    if not bucket:
                        del index[sensor_id]
        for record in removed:
            if record.matcher is None:
                continue
            group = self.streams[record.matcher]
            group.records.remove(record)
            if group.records:
                group.rescan()
            else:
                del self.streams[record.matcher]
        for record in removed:
            if record.matcher is not None:
                self._engine.release(record.operator)
        return removed

    def records(self) -> list[StoredOperator]:
        """Every record in arrival order (cancellation repair walks it)."""
        return list(self._records)

    def candidates(
        self, slot: Slot, before: LifecycleSeq | None = None
    ) -> Sequence[IndexEntry]:
        """Uncovered ``(record, slot)`` entries ranked before ``before``
        (None: all) among which every cover of ``slot`` is: a covering
        slot draws from a superset of its sensors, so it is filed under
        each of them — the shortest bucket holds them all."""
        index = self._built_index()
        bucket = min((index.get(s, ()) for s in slot.sensors), key=len)
        if before is not None and bucket and not bucket[-1][0].seq < before:
            return bucket[: bisect_left(bucket, before, key=_entry_rank)]
        return bucket

    def matched_for_sensor(
        self, sensor_id: str
    ) -> Iterator[tuple[CorrelationOperator, object | None]]:
        """Uncovered (operator, matcher) pairs with a slot drawing from
        ``sensor_id``, in arrival rank — for the one event path that
        forwards on a value filter instead of a match (multi-join's role
        walk)."""
        last = None
        for record, _slot in self._built_index().get(sensor_id, ()):
            if record is not last:  # one entry per slot; a rank's are adjacent
                last = record
                yield record.operator, record.matcher

    def __len__(self) -> int:
        return len(self._records)


class Node:
    """Base processing node: one operator pipeline and one event
    pipeline (Algorithms 3-5), parameterised by Table II's three axes —
    filtering is :attr:`is_covered`, splitting
    :meth:`on_operator_uncovered`, event propagation the constant
    ``per_neighbor``.  As they stand here: the naive approach.
    """

    #: Filtering: ``is_covered(operator, store, before=None)`` says
    #: whether the uncovered operators ``store`` holds ranked before
    #: ``before`` make ``operator`` redundant (protocol hook; None, as
    #: here: no filtering — no operator is asked about, and a removal
    #: leaves no cover decision to repair).  Arrival asks with
    #: ``before=None``, cancellation repair with the record's rank: one
    #: rule, so the repaired store is the store of a run that never saw
    #: the cancelled subscription.  A rule reads its candidates from
    #: ``store.candidates``.
    is_covered: Callable[..., bool] | None = None
    #: Per-neighbour publish/subscribe forwarding (an event crosses a
    #: link once) instead of one result stream per stored operator.
    #: Either way an operator covered at this node generates its result
    #: set from here (Sections III-A, V-A).
    per_neighbor = False
    #: Whether ``handle_operator`` can route pieces along a compiled
    #: placement plan; ``Network.check_plan`` refuses a plan on a node
    #: class that says no.
    executes_plans = True

    def __init__(self, node_id: str, network: "Network") -> None:
        self.node_id = node_id
        self.network = network
        # While down (None while up): the sensors wired here and those
        # that left during the outage, by id (see crash / recover).
        self._crashed_locals: dict[str, Advertisement] | None = None
        self._departed_locals: dict[str, Advertisement] = {}
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        """Everything a process crash loses, in its initial state."""
        self.ads = AdvertisementTable()
        self.stores: dict[str, SubscriptionStore] = {}
        self.local_subscriptions: list[tuple[Subscription, CorrelationOperator]] = []
        self.store = EventStore(self.network.validity)
        # The matching engine mirrors the event store and matches each
        # arrival as it is stored (see ingest).
        self.matching = MatchingEngine(self.store)
        # The whole root operators of the local subscriptions, a store
        # of their own: the final local check reads its stream index.
        self._local_roots = SubscriptionStore(self.matching)
        # Forwarded-to marks, one entry per stored event so one pop
        # forgets them.  Pub/sub lanes (and the centre's result sets):
        # ``{tag, ...}`` of links (op ids) served — was_sent/mark_sent.
        # Stream lane: ``{link: {op id, ...}}``, the streams that link
        # has carried the event for.
        self._sent: dict[EventKey, Any] = {}
        self._adds_since_prune = 0
        self._seq_source = SeqSource()
        # Reverse-path memory for query cancellation and soft-state
        # refresh: per subscription, the exact ``(operator piece, plan)``
        # pairs this node forwarded to each neighbour.  An
        # UnsubscribeMessage retraces these edges; a refresh round
        # re-offers the pieces, each with the plan it travelled under.
        self._forwarded_subs: dict[
            str, dict[str, dict[str, tuple[CorrelationOperator, object | None]]]
        ] = {}
        # Soft-state clock: last refresh epoch seen per sensor (0 =
        # only the setup flood).  Dedupes refresh floods and drives
        # advertisement expiry.
        self._ad_epochs: dict[str, int] = {}

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> list[str]:
        return self.network.neighbors(self.node_id)

    @property
    def now(self) -> float:
        return self.network.sim.now

    def receive(self, message: Message, origin: str) -> None:
        """Dispatch a delivered message to the protocol hooks.

        Events come first: without reliability they outnumber the other
        kinds by orders of magnitude.  Advertisements come second: with
        it, soft-state refresh floods outnumber even the events 2:1.
        """
        if isinstance(message, EventMessage):
            self.handle_event(message.event, origin, message.streams)
        elif isinstance(message, AdvertisementMessage):
            if message.retract:
                self.handle_retraction(message.advertisement, origin)
            elif message.refresh_epoch is not None:
                self.handle_refresh_advertisement(message, origin)
            else:
                self.handle_advertisement(message.advertisement, origin)
        elif isinstance(message, OperatorMessage):
            if self.network.reliability is not None and self.knows_operator(
                message.operator
            ):
                # Soft-state re-offer (or redundant copy) of an operator
                # already stored here: re-handling would duplicate
                # records and forwarding — duplicates stay invisible.
                return
            self._seq_source.begin_arrival()
            self.handle_operator(message.operator, origin, message.plan)
        elif isinstance(message, UnsubscribeMessage):
            self.handle_unsubscribe(message.subscription_id, origin)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown message {message!r}")

    def store_for(self, origin: str) -> SubscriptionStore:
        store = self.stores.get(origin)
        if store is None:
            store = self.stores[origin] = SubscriptionStore(
                self.matching, self._seq_source
            )
        return store

    # ------------------------------------------------------------------
    # sending helpers
    # ------------------------------------------------------------------
    def send_operator(
        self,
        neighbor: str,
        operator: CorrelationOperator,
        plan: object | None = None,
    ) -> None:
        self._forwarded_subs.setdefault(
            operator.subscription_id, {}
        ).setdefault(neighbor, {})[operator.op_id] = (operator, plan)
        self.network.send(self.node_id, neighbor, OperatorMessage(operator, plan=plan))

    def flood(self, message: Message, skip: str | None = None) -> None:
        """Send ``message`` to every neighbour except ``skip``."""
        for neighbor in self.neighbors:
            if neighbor != skip:
                self.network.send(self.node_id, neighbor, message)

    def knows_operator(self, operator: CorrelationOperator) -> bool:
        """Whether any store currently holds a record of ``operator``'s id."""
        return any(store.has_operator(operator) for store in self.stores.values())

    def send_event(
        self, neighbor: str, event: SimpleEvent, streams: tuple[str, ...] = ()
    ) -> None:
        self.network.send(self.node_id, neighbor, EventMessage(event, streams))

    def was_sent(self, key: EventKey, tag: Hashable) -> bool:
        tags = self._sent.get(key)
        return tags is not None and tag in tags

    def mark_sent(self, key: EventKey, tag: Hashable) -> None:
        self._sent.setdefault(key, set()).add(tag)

    # ------------------------------------------------------------------
    # injection entry points
    # ------------------------------------------------------------------
    def attach_sensor(self, advertisement: Advertisement) -> None:
        """Algorithm 1, lines 2-7: a local sensor appears (or re-joins
        after churn) — an advertisement whose origin is ``LOCAL``."""
        if self._crashed_locals is not None:
            self._crashed_locals[advertisement.sensor_id] = advertisement
            return
        self.handle_advertisement(advertisement, LOCAL)

    def detach_sensor(self, sensor_id: str) -> None:
        """Churn leave: a retraction whose origin is ``LOCAL``.  Unknown
        or already detached sensors are a no-op."""
        if self._crashed_locals is not None:
            if sensor_id in self._crashed_locals:
                self._departed_locals[sensor_id] = self._crashed_locals.pop(sensor_id)
            return
        advertisement = self.ads.get(sensor_id)
        if advertisement is not None:
            self.handle_retraction(advertisement, LOCAL)

    def publish(self, event: SimpleEvent) -> None:
        """A locally attached sensor produced a reading."""
        self.handle_event(event, LOCAL, ())

    def subscribe(
        self, subscription: Subscription, plan: object | None = None
    ) -> None:
        """Register a local user subscription.

        Resolves it against this node's advertisement table (local
        knowledge only — the table was filled by flooding); a
        subscription with an absent source is dropped (Algorithm 3,
        line 3).

        A compiled ``plan`` rides along to :meth:`handle_operator`,
        where it replaces the split; local delivery and the
        absent-sources check are identical either way.
        """
        root = root_operator(subscription, self.node_id, self.ads)
        if root is None:
            self.network.dropped_subscriptions.append(subscription.sub_id)
            return
        self.local_subscriptions.append((subscription, root))
        # The whole root operator drives the final local check even when
        # handle_operator stores only fragments of it (its matcher is
        # retained here and released again on cancellation).
        self._local_roots.add(root, covered=False)
        self._seq_source.begin_arrival()
        self.handle_operator(root, LOCAL, plan)

    # ------------------------------------------------------------------
    # the operator pipeline (Algorithms 3-4): filter, store, place
    # ------------------------------------------------------------------
    def handle_operator(
        self, operator: CorrelationOperator, origin: str, plan: object | None = None
    ) -> None:
        """An operator arrived from ``origin``: filter it against what
        that origin sent before, store it, place it if it stays uncovered.

        A compiled ``plan`` (opaque here: any object with
        ``next_hops(node_id, sensors)``, built by ``repro.placement``
        above this layer) replaces the split and nothing else.  A
        planned piece is never filtered, so the covered-only
        cancellation repair never touches it, and is stored once,
        marked *planned*: a plan may fold a branch back along its trunk
        (delayed split), so completed matches must travel to the
        neighbour the branch events arrived from — the one case the
        forward paths' neighbour==sender skip must not apply to
        (:meth:`hit_links`).  The mark lives and dies with the record.
        """
        store = self.store_for(origin)
        planned = plan is not None
        if planned and store.has_operator(operator):
            return
        covered = (
            not planned
            and self.is_covered is not None
            and self.is_covered(operator, store)
        )
        record = store.add(operator, covered, planned=planned)
        if not covered:
            self.on_operator_uncovered(record, origin, store, plan)

    def on_operator_uncovered(
        self,
        record: StoredOperator,
        origin: str,
        store: SubscriptionStore,
        plan: object | None = None,
    ) -> None:
        """Place a stored operator that stays (arrival) or became
        (repair) uncovered (protocol hook; default: simple splitting)."""
        self.forward_split(record.operator, origin, plan)

    def forward_split(
        self, operator: CorrelationOperator, origin: str, plan: object | None = None
    ) -> None:
        """Simple splitting: project on each neighbour's advertised data
        space (Algorithm 3, lines 7-9) — or on the plan's routing table —
        and send.  :meth:`send_operator` records the reverse path, so
        teardown and soft-state refresh retrace either split alike."""
        if plan is None:
            pieces = self.split_targets(operator, origin)
        else:
            pieces = (
                (neighbor, operator.project_sensors(subset))
                for neighbor, subset in plan.next_hops(self.node_id, operator.sensors)
            )
        for neighbor, piece in pieces:
            if piece is not None:
                self.send_operator(neighbor, piece, plan)

    # ------------------------------------------------------------------
    # query cancellation (the subscription lifecycle's retire edge)
    # ------------------------------------------------------------------
    def unsubscribe(self, sub_id: str) -> bool:
        """Cancel a *local* user subscription.

        Removes the local delivery registration (no further complex
        events reach the user, effective immediately) and starts the
        reverse-path operator removal: an :class:`UnsubscribeMessage`
        retraces every link this subscription's operators were forwarded
        over, deleting them and repairing coverage decisions so the
        remaining network state is the state of a run that never saw the
        subscription.  Returns False when the subscription is not
        locally registered (never submitted here, dropped for absent
        sources, or already cancelled).
        """
        kept = [e for e in self.local_subscriptions if e[0].sub_id != sub_id]
        if len(kept) == len(self.local_subscriptions):
            return False
        self.local_subscriptions = kept
        self._local_roots.remove_subscription(sub_id)
        self.retire_subscription(sub_id)
        return True

    def retire_subscription(self, sub_id: str) -> None:
        """Start the network-wide teardown (protocol hook).

        The distributed approaches remove the locally stored root and
        chase the forwarded fragments; the centralized baseline unicasts
        the retirement to the centre instead.
        """
        self.handle_unsubscribe(sub_id, LOCAL)

    def handle_unsubscribe(self, sub_id: str, origin: str) -> None:
        """Reverse-path removal step at one node.

        Drops every stored operator of ``sub_id`` received from
        ``origin`` (releasing matchers), repairs the origin store's
        coverage decisions, and forwards the retirement to every
        neighbour this node sent the subscription's operators to.
        Unknown subscriptions are a no-op — the message only travels
        edges the operators actually travelled, but tolerance keeps the
        handler safe under races with churn.
        """
        store = self.stores.get(origin)
        removed = store.remove_subscription(sub_id) if store is not None else []
        for record in removed:
            self.on_operator_removed(record.operator)
        if removed:
            self.repair_coverage(store, origin)
        for neighbor in sorted(self._forwarded_subs.pop(sub_id, ())):
            self.network.send(self.node_id, neighbor, UnsubscribeMessage(sub_id))

    def repair_coverage(self, store: SubscriptionStore, origin: str) -> None:
        """Re-evaluate the store's covered operators after a removal.

        Walks the records in arrival order; a covered operator whose
        coverage no longer holds against the uncovered operators that
        arrived *before* it (exactly the candidates its original
        arrival-time check saw, minus the removed subscription) is
        restored to uncovered and forwarded as its original arrival
        would have forwarded it.  The walk is promote-only — with
        arrival-ordered candidates a removal can never make an
        uncovered operator covered — so one ordered pass converges.
        Without a cover rule nothing was stored covered: no walk.
        """
        if self.is_covered is None:
            return
        for record in store.records():
            if not record.covered:
                continue
            if self.is_covered(record.operator, store, record.seq):
                continue
            store.uncover(record)
            self._seq_source.begin_arrival(prefix=record.seq)
            self.on_operator_uncovered(record, origin, store)

    def on_operator_removed(self, operator: CorrelationOperator) -> None:
        """Per-operator teardown hook (multi-join clears roles/rings)."""

    # ------------------------------------------------------------------
    # protocol hooks
    # ------------------------------------------------------------------
    def handle_advertisement(self, advertisement: Advertisement, origin: str) -> None:
        """Algorithm 1, lines 8-13: store and flood onwards.

        A re-join advertisement of a previously retracted sensor takes
        exactly this path (the retraction removed the table entry, so
        the flood does not stop early) and lifts the event fence: events
        the sensor publishes after rejoining are stored and matched
        again.
        """
        self.store.unfence_sensor(advertisement.sensor_id)
        if not self.ads.add(origin, advertisement):
            return
        self.flood(AdvertisementMessage(advertisement), skip=origin)

    def handle_retraction(self, advertisement: Advertisement, origin: str) -> None:
        """Churn leave, remote side: forget, fence and flood onwards.

        Mirrors :meth:`handle_advertisement` for departures: the reverse
        advertisement path entry is removed (so a later re-join floods
        through again), the departed sensor's stored events are fenced
        out of matching, and the retraction continues through the tree.
        The duplicate guard is the table itself — an unknown sensor
        means the flood already passed here.
        """
        if not self.ads.remove(advertisement.sensor_id):
            return
        self.fence_sensor_state(advertisement.sensor_id)
        self.flood(AdvertisementMessage(advertisement, retract=True), skip=origin)

    def fence_sensor_state(self, sensor_id: str) -> None:
        """Drop a departed sensor's events from ``U`` and the per-event
        forwarded-to flags (the store's listener, the matching engine,
        mirrors the drop)."""
        for key in self.store.fence_sensor(sensor_id, self.now):
            self._sent.pop(key, None)

    # ------------------------------------------------------------------
    # soft state & crash semantics (reliability layer)
    # ------------------------------------------------------------------
    def handle_refresh_advertisement(
        self, message: AdvertisementMessage, origin: str
    ) -> None:
        """A soft-state refresh copy of an advertisement arrived.

        Refresh floods dedupe on the per-sensor epoch clock rather than
        on the advertisement table: the table would stop the flood at
        the first node that still knows the sensor, and the whole point
        of a refresh round is to get *past* such nodes to a recovered,
        state-less broker behind them.  Each round therefore crosses
        every link once per sensor — the steady-state overhead
        ``refresh_units`` meters, passing on the frozen copy received.
        """
        advertisement, epoch = message.advertisement, message.refresh_epoch
        sensor_id = advertisement.sensor_id
        if epoch is None or self._ad_epochs.get(sensor_id, 0) >= epoch:
            return
        self._ad_epochs[sensor_id] = epoch
        self.store.unfence_sensor(sensor_id)
        self.ads.add(origin, advertisement)
        self.flood(message, skip=origin)

    def refresh_soft_state(self, epoch: int, expiry_rounds: int) -> None:
        """One refresh round at this node (reliability layer only).

        Expires remote advertisements that missed ``expiry_rounds``
        consecutive rounds, re-floods the local ones tagged with this
        epoch, and re-offers every operator piece previously forwarded,
        under the plan it was forwarded with (receivers that still hold
        a piece ignore the copy; a recovered broker re-learns it).  This
        is how routing and subscription state heals after losses and
        outages.
        """
        expired = [
            sensor_id
            for origin in sorted(self.ads.origins())
            if origin != LOCAL
            for sensor_id in sorted(self.ads.from_origin(origin))
            if self._ad_epochs.get(sensor_id, 0) < epoch - expiry_rounds
        ]
        for sensor_id in expired:
            self.ads.remove(sensor_id)
            self._ad_epochs.pop(sensor_id, None)
            self.fence_sensor_state(sensor_id)
        for sensor_id, advertisement in sorted(
            self.ads.from_origin(LOCAL).items()
        ):
            self._ad_epochs[sensor_id] = epoch
            self.flood(AdvertisementMessage(advertisement, refresh_epoch=epoch))
        for _, per_neighbor in sorted(self._forwarded_subs.items()):
            for neighbor, pieces in sorted(per_neighbor.items()):
                for _, (operator, plan) in sorted(pieces.items()):
                    message = OperatorMessage(operator, refresh_epoch=epoch, plan=plan)
                    self.network.send(self.node_id, neighbor, message)

    def crash(self) -> None:
        """Broker failure: all volatile state is lost.

        Advertisement table, subscription stores, event store, matcher
        state, forwarded-to flags and reverse-path memory are gone —
        exactly what a process crash loses.  Only the fact of which
        sensors are physically attached survives (the hardware is still
        wired), and churn while down edits just that fact.
        """
        self._crashed_locals = dict(self.ads.from_origin(LOCAL))
        self._reset_volatile()
        self.on_crash()

    def recover(self) -> None:
        """Broker recovery: re-enter through the re-flood path.

        Sensors that left meanwhile retract like a churn leave, attached
        ones re-advertise like a re-join (:meth:`attach_sensor`); remote
        advertisements and forwarded operators return with the
        neighbours' next refresh round.
        """
        attached, self._crashed_locals = self._crashed_locals, None
        departed, self._departed_locals = self._departed_locals, {}
        for _, advertisement in sorted(departed.items()):
            self.ads.add(LOCAL, advertisement)  # known only to be retracted
            self.handle_retraction(advertisement, LOCAL)
        for _, advertisement in sorted(attached.items()):
            self.attach_sensor(advertisement)

    def on_crash(self) -> None:
        """Subclass hook: drop approach-specific volatile state."""

    # ------------------------------------------------------------------
    # the event pipeline (Algorithm 5): store and match, deliver, forward
    # ------------------------------------------------------------------
    def handle_event(
        self, event: SimpleEvent, origin: str, streams: tuple[str, ...]
    ) -> None:
        hits = self.ingest(event)
        if not hits:
            return  # dropped, or no operator here has a match
        self.deliver_local_matches(hits)  # lines 14-15 (j == n)
        if self.per_neighbor:
            self.pubsub_forward(hits, origin)
        else:
            self.stream_forward(hits, origin)

    def ingest(self, event: SimpleEvent) -> HitMap | None:
        """Insert into ``U`` and match.

        None for a duplicate, expired or fenced arrival (drop & stop);
        otherwise the arrival's hit map — every stored matcher it
        completes a window of, with the participants — which the rest
        of the event path routes.  An empty map means no operator here
        has a match: nothing to deliver, nothing to forward.
        """
        if not self.store.add(event, self.now):
            return None
        # Read before the prune below: a horizon advance ends the map.
        hits = self.matching.hits(event)
        self._adds_since_prune += 1
        if self._adds_since_prune >= _PRUNE_EVERY:
            self._adds_since_prune = 0
            self.prune_expired()
        return hits

    def prune_expired(self) -> None:
        """Sweep ``U`` and forget the forwarded-to flags of what left it."""
        for key in self.store.prune(self.now):
            self._sent.pop(key, None)

    def deliver_local_matches(self, hits: HitMap) -> None:
        """Final, exact matching against whole local subscriptions.

        Algorithm 5, line 14-15: for ``j == n`` the whole local
        subscriptions are checked and matching complex events delivered
        to the user.  Participants are logged for the recall metric.
        """
        local = self._local_roots.streams
        if not local:
            return
        delivery = self.network.delivery
        for matcher, participants in hits.items():
            group = local.get(matcher)
            if group is None:
                continue
            delivered = [e for events in participants.values() for e in events]
            for record in group.records:
                sub_id = record.operator.subscription_id
                delivery.record_events(sub_id, delivered)
                delivery.record_complex(sub_id)

    def split_targets(
        self, operator: CorrelationOperator, origin: str
    ) -> list[tuple[str, CorrelationOperator | None]]:
        """Algorithm 3, lines 7-9: ``(neighbour, projected operator)``
        pairs by neighbour over the table's memoised split of the
        operator's sensors by reverse advertisement path — the paper's
        deterministic split.  Locally attached sensors and the origin
        the operator came from get nothing."""
        return [
            (neighbor, operator.project_sensors(sensor_ids))
            for neighbor, sensor_ids in self.ads.split(operator.sensors, origin)
            if neighbor != LOCAL
        ]

    def hit_links(self, hits: HitMap, sender: str) -> list[tuple[str, list]]:
        """Per-link header of the two forward paths below.

        ``(neighbour, [(op ids, participants), ...])`` per link: one pair
        per matcher in ``hits`` with streams from that neighbour, covered
        ones included, however many share it.
        Toward the ``sender`` only plan-adopted streams count, the
        fold-back path of a compiled plan (:meth:`handle_operator`).
        """
        links = []
        for neighbor in self.neighbors:
            store = self.stores.get(neighbor)
            if store is None:
                continue
            index = store.streams
            owed = []
            for matcher, participants in hits.items():
                group = index.get(matcher)
                if group is None:
                    continue
                ops = group.every
                if neighbor == sender:
                    ops = group.planned and ops & group.planned
                if ops:
                    owed.append((ops, participants))
            if owed:
                links.append((neighbor, owed))
        return links

    def pubsub_forward(self, hits: HitMap, sender: str) -> None:
        """Per-neighbour publish/subscribe forwarding (Algorithm 5).

        For every neighbour ``j`` (except the sender), the event — and
        any stored events it newly correlates with — is forwarded iff it
        participates in a complex match of an operator received from
        ``j``, at most once per link.  ``hits`` holds those matches.
        """
        sent = self._sent
        for neighbor, owed in self.hit_links(hits, sender):
            outgoing: dict[EventKey, SimpleEvent] = {}
            for _ops, participants in owed:
                for events in participants.values():
                    for member in events:
                        # inline was_sent — this loop touches every
                        # participant of every matching group
                        tags = sent.get(member.key)
                        if tags is None or neighbor not in tags:
                            outgoing[member.key] = member
            for key, member in sorted(outgoing.items()):
                self.mark_sent(key, neighbor)
                self.send_event(neighbor, member)

    def stream_forward(self, hits: HitMap, sender: str) -> None:
        """Per-subscription result-set forwarding (naive / operator
        placement).

        Every stored operator is its own result stream: an event is sent
        once per (operator stream, link), so overlapping subscriptions
        pay repeatedly — exactly the redundancy the paper attributes to
        these approaches.  The streams of operators covered *at this
        node* are generated here from the covering operator's incoming
        stream (Section III-A: the covered operator "generates traffic
        only from the node where coverage was detected, to the user's
        node").  ``hits`` holds the matches.
        """
        sent = self._sent
        for neighbor, owed in self.hit_links(hits, sender):
            outgoing: dict[EventKey, tuple[SimpleEvent, list[str]]] = {}
            for ops, participants in owed:
                for events in participants.values():
                    for member in events:
                        # The streams of this group the link has not yet
                        # carried the member for: one set difference.
                        key = member.key
                        links = sent.get(key)
                        if links is None:
                            links = sent[key] = {}
                        carried = links.get(neighbor)
                        if carried is None:
                            links[neighbor] = set(ops)
                            new = ops
                        else:
                            new = ops - carried
                            if not new:
                                continue
                            carried |= new
                        outgoing.setdefault(key, (member, []))[1].extend(new)
            for key, (member, streams) in sorted(outgoing.items()):
                self.send_event(neighbor, member, tuple(sorted(streams)))
