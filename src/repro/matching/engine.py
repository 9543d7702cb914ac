"""The incremental correlation-matching engine.

The reference matcher (:mod:`repro.model.matching`) answers "which
stored events does this arrival correlate with?" by rescanning the
event store: once per candidate trigger it re-reads every slot's
sensors and re-evaluates every filter — O(operators × triggers × slots
× window) per arriving event, with nothing remembered between calls.
That recompute-on-arrival cost dominates wall-clock long before network
traffic does (the paper's metric), so this module restructures node
matching around *per-operator incremental state*:

* an :class:`OperatorMatcher` is registered when an operator is stored
  (``SubscriptionStore.add``) and fed every ingested event exactly
  once — filter acceptance is evaluated once per (event, slot) instead
  of once per trigger scan, and accepted events land in per-slot sorted
  :class:`~repro.matching.timeline.Timeline`\\ s;
* a query sweeps all candidate triggers with shared two-pointer
  windows: trigger times are sorted, so each slot's half-open window
  ``(t* − Δt, t*]`` advances monotonically and the whole sweep touches
  each timeline entry O(1) times;
* an in-order arrival — nearly every one, since sensors publish in
  timestamp order — is swept with one bisect per slot and no search: a
  slot holding nothing after ``t0`` has no later trigger and its window
  ends at its end, and the arrival is its own slot's newest entry;
  after an out-of-order arrival, a slot holding a later entry takes
  three bisects in the same pass and the arrival is found by search;
* for finite ``delta_l`` the spatial combination search is pruned with
  a coarse uniform grid (:mod:`repro.matching.spatial`) before the
  exact backtracking runs — the decision stays exact;
* live ingest routes through one registration list per sensor: an
  arriving value is tested against the closed interval of every slot
  drawing from its sensor, across all matchers, in registration order
  (an arrival on the benchmark workloads scans 3-13 registrations on
  average, at most 38, and most of them accept it, so a plain scan
  costs what an interval-stabbing index would);
* matchers are shared per *match structure* ``(slots, delta_t,
  delta_l)`` — everything the sweeps read.  Clones of one question
  (same filters, own subscription id and user node) index each arrival
  once and sweep it once;
* matching is *arrival-driven*: the sensor's registration list has
  just named the matchers whose filters accept the arrival, so the
  engine sweeps those — and of those only the ones whose every slot
  holds an entry recent enough to complete a window — and keeps the
  answers as the arrival's **hit map** ``{matcher: participants}``
  (:meth:`MatchingEngine.hits`).  Nodes route that map; no stored
  operator probes an arrival that cannot concern it.

The engine mirrors the :class:`~repro.network.eventstore.EventStore`
through its listener protocol (``event_added`` / ``horizon_advanced``),
so a matcher's timelines always hold exactly the store-visible events
its slots accept — which is what makes the engine provably equivalent
to the reference matcher run against the same store (the property suite
machine-checks this; the reference stays in-tree as the oracle).
Offline, :func:`replay` builds a matcher over a fixed event set with no
store behind it: every after-the-fact match question asks one.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..model.events import SimpleEvent
from ..model.operators import CorrelationOperator, Slot
from .spatial import combination_exists, participating
from .timeline import Timeline, append_to

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.eventstore import EventStore


_INF = float("inf")

Participants = Mapping[str, list[SimpleEvent]]
"""Per-slot participants of a sweep.  Read-only: one result object is
handed to every subscription sharing the matcher."""

_NO_MATCH: Participants = MappingProxyType({})

HitMap = Mapping["OperatorMatcher", Participants]
"""One arrival's matches: every matcher it completes a window of, with
the participants.  A matcher without a match is absent."""


def _result_order(event: SimpleEvent) -> tuple[float, tuple[str, int]]:
    """The reference matcher's deterministic participant order."""
    return (event.timestamp, event.key)


def _sort_if_tied(participants: list[SimpleEvent]) -> None:
    """Restore the reference's (timestamp, key) order.

    Span-merged participants already arrive timestamp-sorted; only
    equal-timestamp ties can deviate (timeline order breaks them by
    ``(seq, sensor)``, the reference by ``(sensor, seq)``), so the
    O(n·log n) keyed sort runs only when a tie actually exists.
    """
    previous = None
    for event in participants:
        if event.timestamp == previous:
            participants.sort(key=_result_order)
            return
        previous = event.timestamp


def match_structure(
    operator: CorrelationOperator,
) -> tuple[tuple[Slot, ...], float, float]:
    """Everything of an operator the sweeps read — the sharing key:
    operators with equal structures get equal answers."""
    return (operator.slots, operator.delta_t, operator.delta_l)


class OperatorMatcher:
    """Incremental matching state of one match structure (Algorithm 5,
    stateful).

    Built from an operator but keeps only its :func:`match_structure`,
    so a :class:`MatchingEngine` hands the same matcher to every
    operator with that structure, whatever its subscription id or
    subscriber.
    """

    __slots__ = (
        "structure",
        "_engine",
        "_slot_ids",
        "_delta_t",
        "_delta_l",
        "_timelines",
        "_finite",
        "_min_ts",
        "_users",
    )

    def __init__(
        self, operator: CorrelationOperator, engine: "MatchingEngine | _NoExpiry"
    ) -> None:
        self.structure = match_structure(operator)
        self._engine = engine
        self._slot_ids = [slot.slot_id for slot in operator.slots]
        self._delta_t = operator.delta_t
        self._delta_l = operator.delta_l
        self._timelines = [Timeline() for _ in operator.slots]
        self._finite = not math.isinf(operator.delta_l)
        self._min_ts = float("inf")  # earliest indexed timestamp
        self._users = 0  # operators the engine resolves to this matcher

    # ------------------------------------------------------------------
    # ingest path (live events route through the engine's registration
    # lists instead; this slot-by-slot path serves the backfill and
    # replay)
    # ------------------------------------------------------------------
    def ingest(self, event: SimpleEvent) -> None:
        """Index one stored event; acceptance tested once per slot."""
        for slot, timeline in zip(self.structure[0], self._timelines):
            if slot.accepts(event):
                timeline.add(event)
                if event.timestamp < self._min_ts:
                    self._min_ts = event.timestamp

    def sensors(self) -> list[str]:
        """Every sensor some slot draws from, sorted."""
        return sorted({s for slot in self.structure[0] for s in slot.sensors})

    def backfill(self, store: "EventStore") -> None:
        """Index the store's current visible content (late registration)."""
        for sensor_id in self.sensors():
            for event in store.sensor_events(sensor_id):
                self.ingest(event)

    def _prune(self) -> None:
        """Drop entries below the store's expiry horizon."""
        horizon = self._engine.horizon
        if horizon < self._min_ts:
            return  # nothing indexed can have expired — O(1) fast path
        min_ts = float("inf")
        for timeline in self._timelines:
            timeline.drop_until(horizon)
            if timeline.min_timestamp < min_ts:
                min_ts = timeline.min_timestamp
        self._min_ts = min_ts

    def _refresh_min_ts(self) -> None:
        """Recompute the earliest indexed timestamp after a fence drop."""
        self._min_ts = min(
            (tl.min_timestamp for tl in self._timelines), default=float("inf")
        )

    def fence_sensor(self, sensor_id: str, until: float = float("inf")) -> int:
        """Drop indexed events of ``sensor_id`` with ``timestamp <= until``.

        The churn fence, mirrored into the per-slot timelines: the
        online engine routes here via the store's ``sensor_fenced``
        listener callback; the oracle's truth pass calls it directly as
        its trigger sweep crosses each scheduled departure.  Returns the
        number of dropped entries.
        """
        dropped = 0
        for slot, timeline in zip(self.structure[0], self._timelines):
            if sensor_id in slot.sensors:
                dropped += timeline.drop_sensor(sensor_id, until)
        if dropped:
            self._refresh_min_ts()
        return dropped

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def matches_involving(
        self, event: SimpleEvent, own: int | None = None
    ) -> Participants:
        """Participants of every match ``event`` takes part in: one sweep.

        Same contract as the reference
        :func:`repro.model.matching.matches_involving`, except that the
        result is read-only — the engine hands the one object to every
        operator sharing this matcher.  ``own`` is the index of the
        first slot accepting ``event``; the engine's ingest passes the
        one its registration list found, anyone else leaves it out.
        """
        if own is None:
            own = self._own_slot_index(event)
            if own is None:
                return _NO_MATCH
        found = self._sweep(event, own)
        return MappingProxyType(found) if found else _NO_MATCH

    def instance_exists(self, trigger: SimpleEvent) -> bool:
        """Does a match with maximum member ``trigger`` exist?

        Same contract as the reference
        :func:`repro.model.matching.instance_exists` (the oracle
        primitive): the trigger-anchored window must be complete and,
        for finite ``delta_l``, admit a combination that includes the
        trigger.  Like the reference, it does *not* require the trigger
        itself to be stored.
        """
        lists = self._anchored(trigger)
        if lists is None:
            return False
        return not self._finite or combination_exists(lists, self._delta_l)

    def instance_members(
        self, trigger: SimpleEvent
    ) -> dict[str, list[SimpleEvent]] | None:
        """Per-slot members of the valid combinations *containing*
        ``trigger`` as their maximum member: the user's reconstruction of
        one match instance.

        None exactly where :meth:`instance_exists` says no.  A complex
        event holds one member per slot, so the trigger's own slot holds
        the trigger alone; with finite ``delta_l`` another slot keeps the
        events taking part in a spatially valid combination with it.
        Members come back in timeline order.
        """
        lists: Sequence[Sequence[SimpleEvent]] | None = self._anchored(trigger)
        if lists is None:
            return None
        if self._finite:
            lists = participating(lists, self._delta_l)
            if lists is None:
                return None
        return {
            slot_id: list(members) for slot_id, members in zip(self._slot_ids, lists)
        }

    def _anchored(self, trigger: SimpleEvent) -> list[Sequence[SimpleEvent]] | None:
        """The trigger-anchored window, one candidate list per slot.

        Every slot's window ``(t − Δt, t]`` at the trigger's timestamp
        ``t`` must be non-empty; the trigger's own slot is then pinned
        to the trigger, and for finite ``delta_l`` every other slot is
        cut to the events closer than ``delta_l`` to it.  None when the
        trigger fills no slot or a list comes out empty.
        """
        own = self._own_slot_index(trigger)
        if own is None:
            return None
        self._prune()
        after = trigger.timestamp - self._delta_t
        windows: list[Sequence[SimpleEvent]] = [
            timeline.view(after, trigger.timestamp) for timeline in self._timelines
        ]
        if not all(windows):
            return None
        windows[own] = [trigger]
        if not self._finite:
            return windows
        delta_l = self._delta_l
        location = trigger.location
        for i, window in enumerate(windows):
            if i == own:
                continue
            near = [e for e in window if e.location.distance_to(location) < delta_l]
            if not near:
                return None
            windows[i] = near
        return windows

    def match_at_trigger(
        self, trigger_time: float
    ) -> dict[str, list[SimpleEvent]] | None:
        """Participants of matches whose maximum timestamp is ``trigger_time``.

        Same decision and per-slot participant *sets* as the reference
        :func:`repro.model.matching.match_at_trigger`, answered from the
        per-slot timelines: ``None`` when some slot's window
        ``(trigger_time − Δt, trigger_time]`` is empty or, for finite
        ``delta_l``, no spatially valid combination exists.  Participants
        come back in timeline ``(timestamp, key)`` order rather than the
        reference's sensor-grouped order — the offline oracle, the only
        consumer, unions keys and never reads the order.
        """
        self._prune()
        after = trigger_time - self._delta_t
        windows = [
            timeline.view(after, trigger_time) for timeline in self._timelines
        ]
        if not all(windows):
            return None
        kept = [list(w) for w in windows]
        if self._finite:
            kept = participating(kept, self._delta_l)
            if kept is None:
                return None
        out: dict[str, list[SimpleEvent]] = {}
        for slot_id, participants in zip(self._slot_ids, kept):
            _sort_if_tied(participants)
            out[slot_id] = participants
        return out

    def _own_slot_index(self, event: SimpleEvent) -> int | None:
        """Index of the first slot accepting ``event`` (reference order)."""
        for index, slot in enumerate(self.structure[0]):
            if slot.accepts(event):
                return index
        return None

    def _sweep(self, event: SimpleEvent, own: int) -> dict[str, list[SimpleEvent]]:
        t0 = event.timestamp
        # Expiry is a query-time *clamp*, exactly like the store's own
        # views: entries at or below the horizon are invisible whether
        # or not the periodic sweep has physically dropped them yet.
        horizon = self._engine.horizon
        if t0 <= horizon:
            return {}  # the arrival itself has already expired
        delta_t = self._delta_t
        after = t0 - delta_t
        if after < horizon:
            after = horizon
        before = t0 + delta_t
        # One fused pass per slot: completeness pre-check, candidate
        # triggers, and the sweep's seed pointers.  Every window a
        # candidate trigger can anchor lies inside (t0 − Δt, t0 + Δt],
        # so one slot with nothing there rules out every match — by far
        # the most common outcome.  The first trigger is always t0
        # itself, so its window (t0 − Δt, t0] seeds the pointers
        # directly.  A slot holding nothing after t0 (in-order delivery)
        # ends its window at its end and adds no trigger: one bisect;
        # any other slot takes three.
        key = (after, _INF)
        entries = []
        lo = []
        hi = []
        later: set[float] | None = None
        for timeline in self._timelines:
            ents = timeline.entries()
            a = bisect_right(ents, key)
            b = len(ents)
            if a == b:
                return {}  # no event in (t0 − Δt, t0 + Δt]: incomplete
            if timeline.max_timestamp > t0:
                if ents[a][0] > before:
                    return {}
                b = bisect_right(ents, (t0, _INF), lo=a)
                # Later accepted events strictly inside (t0, t0 + Δt)
                # are candidate triggers — exactly the set the
                # reference scans.
                c = bisect_left(ents, (before,), lo=b)
                if c > b:
                    if later is None:
                        later = set()
                    later.update(entry[0] for entry in ents[b:c])
            entries.append(ents)
            lo.append(a)
            hi.append(b)
        own_entries = entries[own]
        if own_entries[-1][-1] is event:
            event_pos = len(own_entries) - 1  # the newest entry: no search
        else:
            event_pos = self._timelines[own].index_of(event)
            if event_pos is None:
                # Not stored (duplicate-dropped or expired): the
                # reference scan would find it in no window either.
                return {}
        if later is None:
            # In-order delivery fast path — the arrival is the only
            # candidate trigger and its window is already seeded.
            if not lo[own] <= event_pos < hi[own]:
                return {}
            n = len(entries)
            for i in range(n):
                if lo[i] == hi[i]:
                    return {}
            if not self._finite:
                out: dict[str, list[SimpleEvent]] = {}
                for i, slot_id in enumerate(self._slot_ids):
                    participants = [
                        entry[-1] for entry in entries[i][lo[i] : hi[i]]
                    ]
                    _sort_if_tied(participants)
                    out[slot_id] = participants
                return out
            ordered = [t0]
        else:
            later.add(t0)
            ordered = sorted(later)
        if self._finite:
            return sweep_spatial(
                self._slot_ids,
                delta_t,
                self._delta_l,
                event,
                ordered,
                entries,
                lo,
                hi,
                own,
                event_pos,
            )
        return sweep_plain(
            self._slot_ids, delta_t, ordered, entries, lo, hi, own, event_pos
        )


class _NoExpiry:
    """The engine a :func:`replay` matcher answers to: no store, so
    nothing expires — the horizon its prunes clamp against sits at
    ``-inf`` and every prune takes the O(1) nothing-expired path."""

    __slots__ = ()

    horizon = -_INF


_NO_EXPIRY = _NoExpiry()


def replay(
    operator: CorrelationOperator, events: Iterable[SimpleEvent]
) -> OperatorMatcher:
    """An offline matcher holding ``events`` for good: what every
    after-the-fact match question asks — the oracle over the published
    stream, the recall metric and ``QueryHandle.matches`` over what was
    delivered.  No store mirrors into it: the caller fences it."""
    matcher = OperatorMatcher(operator, _NO_EXPIRY)
    for event in events:
        matcher.ingest(event)
    return matcher


def sweep_plain(
    slot_ids, delta_t, ordered, entries, lo, hi, own: int, event_pos: int
) -> dict[str, list[SimpleEvent]]:
    """Unbounded ``delta_l``: participants are whole windows.

    Window membership is tracked as merged index spans per slot, so
    the union over triggers materialises each entry once.
    """
    n = len(entries)
    spans: list[list[list[int]]] = [[] for _ in range(n)]
    found = False
    for t_star in ordered:
        after = t_star - delta_t
        complete = True
        for i in range(n):
            ents = entries[i]
            h = hi[i]
            limit = len(ents)
            while h < limit and ents[h][0] <= t_star:
                h += 1
            hi[i] = h
            l = lo[i]
            while l < h and ents[l][0] <= after:
                l += 1
            lo[i] = l
            if l == h:
                complete = False
        if not complete or not lo[own] <= event_pos < hi[own]:
            continue
        found = True
        for i in range(n):
            slot_spans = spans[i]
            if slot_spans and lo[i] <= slot_spans[-1][1]:
                if hi[i] > slot_spans[-1][1]:
                    slot_spans[-1][1] = hi[i]
            else:
                slot_spans.append([lo[i], hi[i]])
    if not found:
        return {}
    out: dict[str, list[SimpleEvent]] = {}
    for i, slot_id in enumerate(slot_ids):
        slot_spans = spans[i]
        ents = entries[i]
        if len(slot_spans) == 1:
            a, b = slot_spans[0]
            participants = [entry[-1] for entry in ents[a:b]]
        else:
            participants = []
            for a, b in slot_spans:
                participants.extend([entry[-1] for entry in ents[a:b]])
        _sort_if_tied(participants)
        out[slot_id] = participants
    return out


def sweep_spatial(
    slot_ids,
    delta_t,
    delta_l,
    event,
    ordered,
    entries,
    lo,
    hi,
    own: int,
    event_pos: int,
) -> dict[str, list[SimpleEvent]]:
    """Finite ``delta_l``: grid-pruned combination search per trigger."""
    n = len(entries)
    key = event.key
    union: list[dict[tuple[str, int], SimpleEvent]] = [{} for _ in range(n)]
    found = False
    for t_star in ordered:
        after = t_star - delta_t
        complete = True
        for i in range(n):
            ents = entries[i]
            h = hi[i]
            limit = len(ents)
            while h < limit and ents[h][0] <= t_star:
                h += 1
            hi[i] = h
            l = lo[i]
            while l < h and ents[l][0] <= after:
                l += 1
            lo[i] = l
            if l == h:
                complete = False
        if not complete or not lo[own] <= event_pos < hi[own]:
            continue
        windows = [
            [entry[-1] for entry in entries[i][lo[i] : hi[i]]] for i in range(n)
        ]
        participants = participating(windows, delta_l)
        if participants is None:
            continue
        if not any(e.key == key for e in participants[own]):
            continue
        found = True
        for i in range(n):
            bucket = union[i]
            for e in participants[i]:
                bucket[e.key] = e
    if not found:
        return {}
    return {
        slot_id: sorted(union[i].values(), key=_result_order)
        for i, slot_id in enumerate(slot_ids)
    }


_timeline_of = itemgetter(0)
"""The timeline of an ingest-index payload ``(timeline, matcher, slot index)``."""


def _accepting(registrations: list, attribute: str, value: float) -> list:
    """``(timeline, matcher, slot index)`` of every registration of one
    sensor whose filter accepts ``(attribute, value)``, in registration
    order: a matcher registers its slots back to back and in slot
    order, so its first entry is the slot the reference calls the
    event's own."""
    return [
        payload
        for a, lo, hi, payload in registrations
        if a == attribute and lo <= value <= hi
    ]


def _discard(registrations: list, matcher: "OperatorMatcher") -> None:
    """Remove every registration of ``matcher`` (operator teardown).

    A matcher the list does not hold raises ``KeyError``: like an
    unpaired :meth:`MatchingEngine.release`, it is a bookkeeping bug,
    never a no-op.
    """
    kept = [r for r in registrations if r[3][1] is not matcher]
    if len(kept) == len(registrations):
        raise KeyError(matcher)
    registrations[:] = kept


class MatchingEngine:
    """Per-node registry of operator matchers, kept in lockstep with ``U``.

    One engine serves every operator a node stores, across all
    per-origin subscription stores and the local subscriptions.
    Matchers are shared by match *structure* ``(slots, delta_t,
    delta_l)``: every operator asking the same question — whichever
    subscription, subscriber or neighbour it came from — resolves to
    one :class:`OperatorMatcher`, so each arrival is indexed and swept
    once per distinct question.  Callers never see the sharing:
    :meth:`retain` / :meth:`release` count per operator, and
    :meth:`operators` lists operators, not structures.

    Matching happens at ingest: :meth:`event_added` leaves the
    arrival's :data:`HitMap` behind for the node to route
    (:meth:`hits`).
    """

    _PRUNE_SWEEP_EVERY = 256
    """Store adds between full matcher-prune sweeps (each check is O(1)
    per matcher thanks to the min-timestamp guard)."""

    def __init__(self, store: "EventStore") -> None:
        self._store = store
        self.horizon = store.horizon
        # The latest arrival and its matches, until the mirrored store
        # content changes again (see hits).
        self._hits_event: SimpleEvent | None = None
        self._hits: dict[OperatorMatcher, Participants] = {}
        # operator -> [its matcher, references held]: retain and
        # release ride the operator's cached hash; only an operator not
        # held yet builds and hashes its structure key.
        self._held: dict[CorrelationOperator, list] = {}
        self._shared: dict[tuple, OperatorMatcher] = {}
        # sensor -> its registrations (attribute, lo, hi, (timeline,
        # matcher, slot index)) in registration order.  Empty filters
        # are registered too (they accept nothing): a sensor's list is
        # non-empty for as long as any matcher draws from it.
        self._ingest_index: dict[str, list[tuple]] = {}
        self._adds_since_sweep = 0
        store.add_listener(self)

    # ------------------------------------------------------------------
    # EventStore listener protocol
    # ------------------------------------------------------------------
    def event_added(self, event: SimpleEvent) -> None:
        """Index the arrival and match it: Algorithm 5's question asked
        from the arrival's side.

        The sensor's registration list names exactly the slots
        accepting the arrival; their matchers are the only ones it can
        complete a window of, and :meth:`_sweep_completable` sweeps
        those that can.
        """
        self._adds_since_sweep += 1
        if self._adds_since_sweep >= self._PRUNE_SWEEP_EVERY:
            self._adds_since_sweep = 0
            for matcher in self._shared.values():
                matcher._prune()
        self._hits_event = event
        self._hits = hits = {}
        registrations = self._ingest_index.get(event.sensor_id)
        if registrations is None:
            return
        targets = _accepting(registrations, event.attribute, event.value)
        if not targets:
            return
        append_to(
            map(_timeline_of, targets),
            (event.timestamp, event.seq, event.sensor_id, event),
        )
        # Sweeps start once every accepting timeline has the entry: a
        # matcher whose two slots accept the arrival is swept once, as
        # a member of its first (the reference's own slot), and finds
        # it in the other.
        self._sweep_completable(event, targets, hits)

    def sweep_retained(
        self, matcher: OperatorMatcher, event: SimpleEvent
    ) -> Participants | None:
        """Matches of ``event``, already ingested, for ``matcher``,
        retained after it (multi-join's ring joins): the ingest's
        pre-check, then at most one sweep."""
        found: dict[OperatorMatcher, Participants] = {}
        self._sweep_completable(event, ((None, matcher, None),), found)
        return found.get(matcher)

    @staticmethod
    def _sweep_completable(
        event: SimpleEvent, targets: Iterable[tuple], hits: dict
    ) -> None:
        """Sweep into ``hits`` every matcher of ``targets`` (``(timeline,
        matcher, own slot index)``, a matcher's entries adjacent) that
        ``event`` can complete a window of.

        One is swept only if every one of its slots holds an entry newer
        than ``t0 − Δt``: every candidate trigger ``t*`` of an arrival
        at ``t0`` has ``t* >= t0`` and needs an entry in ``(t* − Δt,
        t*]`` in every slot.  The test is exact, so whatever it skips
        has no match.  One call per arrival, not per matcher: the test
        is inline.
        """
        timestamp = event.timestamp
        previous = None
        for _timeline, matcher, own in targets:
            if matcher is previous:
                continue
            previous = matcher
            if timestamp < matcher._min_ts:
                matcher._min_ts = timestamp
            stale = timestamp - matcher._delta_t
            for timeline in matcher._timelines:
                if timeline.max_timestamp <= stale:
                    break
            else:
                found = matcher.matches_involving(event, own)
                if found:
                    hits[matcher] = found

    def hits(self, event: SimpleEvent) -> HitMap:
        """The matches of ``event``, the arrival just ingested.

        The map is that one arrival's: the next arrival, a horizon
        advance or a fence ends it, and asking for any other event's
        raises rather than answer from a store that has moved on.
        Any other question is a sweep:
        :meth:`OperatorMatcher.matches_involving`.
        """
        if event is not self._hits_event:
            raise LookupError(
                f"no hit map for {event!r}: the engine keeps the latest "
                "arrival's only, until the store next changes"
            )
        return self._hits

    def horizon_advanced(self, horizon: float) -> None:
        self._hits_event = None
        self.horizon = horizon

    def sensor_fenced(self, sensor_id: str) -> None:
        """Mirror a store fence: drop the sensor from the matchers
        drawing from it.

        The sensor's registration list names exactly those (empty
        filters are registered too); a matcher with several slots on
        the sensor is fenced once.
        """
        self._hits_event = None
        registrations = self._ingest_index.get(sensor_id, ())
        for matcher in dict.fromkeys(r[3][1] for r in registrations):
            matcher.fence_sensor(sensor_id)

    # ------------------------------------------------------------------
    def matcher(self, operator: CorrelationOperator) -> OperatorMatcher:
        """The matcher answering for a retained ``operator`` (KeyError
        for one that holds no reference)."""
        return self._held[operator][0]

    # ------------------------------------------------------------------
    # lifecycle (query cancellation)
    # ------------------------------------------------------------------
    def retain(self, operator: CorrelationOperator) -> OperatorMatcher:
        """Get the operator's matcher and count a long-lived reference.

        Subscription stores, local-subscription registrations and the
        multi-join relays' ring joins retain the matchers they hold;
        :meth:`release` drops the reference when the operator is removed
        again (query cancellation).  The first operator of a structure
        creates and backfills its matcher; every later one joins it as
        it is — the matcher already mirrors the store, so a clone
        admitted mid-replay costs no backfill.
        """
        held = self._held.get(operator)
        if held is None:
            structure = match_structure(operator)
            found = self._shared.get(structure)
            if found is None:
                found = self._shared[structure] = OperatorMatcher(operator, self)
                found.backfill(self._store)
                ingest_index = self._ingest_index
                for own, (slot, timeline) in enumerate(
                    zip(operator.slots, found._timelines)
                ):
                    interval = slot.interval
                    registration = (
                        slot.attribute, interval.lo, interval.hi, (timeline, found, own)
                    )
                    for sensor_id in sorted(slot.sensors):
                        ingest_index.setdefault(sensor_id, []).append(registration)
            found._users += 1
            held = self._held[operator] = [found, 0]
        held[1] += 1
        return held[0]

    def release(self, operator: CorrelationOperator) -> None:
        """Drop one reference taken by :meth:`retain`.

        The operator's last release detaches it from its matcher, and
        the matcher is torn down with the last operator resolving to it
        — siblings sharing the structure keep theirs untouched.
        Teardown filters the matcher out of every per-sensor
        registration list and drops lists that became empty: the engine
        ends in the state it would hold had the operator never been
        registered.
        Every release must pair with a retain; an unpaired one is a
        refcount bug and raises ``KeyError``.
        """
        held = self._held[operator]
        held[1] -= 1
        if held[1]:
            return
        del self._held[operator]
        matcher = held[0]
        matcher._users -= 1
        if matcher._users:
            return
        del self._shared[matcher.structure]
        for sensor_id in matcher.sensors():
            registrations = self._ingest_index[sensor_id]
            _discard(registrations, matcher)
            if not registrations:
                del self._ingest_index[sensor_id]

    def operators(self) -> list[CorrelationOperator]:
        """Every retained operator, sorted by ``op_id`` (ties keep
        first-retain order) — one entry per operator however many share
        a matcher."""
        return sorted(self._held, key=lambda operator: operator.op_id)

    @property
    def n_matchers(self) -> int:
        """Live matchers, i.e. distinct structures — at most one per
        operator, fewer wherever operators share."""
        return len(self._shared)

    @property
    def n_indexed_sensors(self) -> int:
        """Sensors with live registrations; 0 once every matcher is gone."""
        return len(self._ingest_index)
