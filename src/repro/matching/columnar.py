"""Columnar batched matching — lane-evaluated shared slot timelines.

Drop-in alternative to :class:`repro.matching.engine.MatchingEngine`
(``Network(matching="columnar")``): same EventStore listener protocol,
same matcher surface (``matches_involving`` / ``instance_exists`` /
``match_at_trigger`` / ``fence_sensor`` / retain-release lifecycle),
same answers — the three-way differential fence in the test suite pins
columnar == incremental == reference on every scenario family.

Organisation (see :mod:`repro.matching.batch` for the storage):

* Slots are grouped by ``(attribute, sensor set)``; each group is one
  refcounted :class:`~repro.matching.batch.SharedTimeline` and each
  distinct filter interval one lane.  The benchmark workload's 1000+
  operators collapse to ~10 groups of ~100 lanes.

* Per arriving event the engine builds one *arrival plan*: a single
  ``searchsorted`` span over the group's timestamp column and one
  broadcast mask matrix (lanes x span) over its value column.  Every
  operator registered on the sensor is then answered from vectorised
  per-lane aggregate bits (window non-empty, later triggers present)
  plus memoised masked window materialisations shared across all
  operators with the same (lane, delta_t).

* The in-order fast path mirrors the incremental matcher's; anything
  involving late triggers or finite ``delta_l`` materialises the masked
  per-slot entry lists and runs *the same* sweep code
  (:func:`repro.matching.engine.sweep_plain` /
  :func:`~repro.matching.engine.sweep_spatial`) the incremental engine
  runs — one algorithm, two storage layouts.

The plan is invalidated by an engine-wide version counter bumped on
every mutation (event adds, fences, horizon moves, lane churn), so
memoised state can never survive a state change.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..model.events import SimpleEvent
from ..model.operators import CorrelationOperator
from ..subsumption.setfilter import ProbabilisticSetFilter
from .batch import Lane, SharedTimeline
from .engine import _sort_if_tied, sweep_plain, sweep_spatial
from .spatial import combination_exists, participating

if TYPE_CHECKING:
    from ..model.intervals import Interval
    from ..network.eventstore import EventStore

_INF = float("inf")

#: Cache-miss marker distinct from a legitimately-``None`` memo value.
_UNSET = object()


class _GroupPlan:
    """Per-arrival vectorised evaluation state for one group.

    Built once per (engine version, arriving event, group) and shared
    by every operator with a slot in the group: one candidate span over
    the widest registered ``delta_t``, one lanes x span mask matrix,
    then per-``delta_t`` aggregate bits and memoised window lists.
    """

    __slots__ = (
        "group",
        "t0",
        "horizon",
        "ts",
        "vals",
        "n",
        "entries",
        "_cache",
        "_pos",
    )

    def __init__(self, group: SharedTimeline, event: SimpleEvent, horizon: float) -> None:
        self.group = group
        self.t0 = event.timestamp
        self.horizon = horizon
        self.entries = group.entries()
        ts, vals, n = group.sync()
        self.ts = ts
        self.vals = vals
        self.n = n
        # One memo dict for everything keyed per (kind, delta_t[, lane]):
        # plans are built for every candidate group of every arrival, so
        # construction cost is the hot path — state is computed lazily.
        self._cache: dict = {}
        self._pos: int | None = -1  # -1 = not yet computed

    def span(self, delta_t: float) -> tuple[int, int, int]:
        """Row indices ``(a, b, c)`` for this operator width.

        ``[a, b)`` is the arrival's own window ``(t0 - delta_t, t0]``,
        ``[b, c)`` the candidate later triggers ``(t0, t0 + delta_t)`` —
        the same three bisects the incremental matcher runs per slot,
        shared here across every lane of the group.
        """
        found = self._cache.get(delta_t)
        if found is not None:
            return found
        t0 = self.t0
        after = t0 - delta_t
        if after < self.horizon:
            after = self.horizon
        head = self.ts[: self.n]
        ab = head.searchsorted((after, t0), side="right")
        a2 = int(ab[0])
        b2 = int(ab[1])
        c2 = int(head.searchsorted(t0 + delta_t, side="left"))
        span = (a2, b2, c2)
        self._cache[delta_t] = span
        return span

    def submask(self, delta_t: float) -> "np.ndarray | None":
        """Lanes x span acceptance matrix over ``(t0 - dt, t0 + dt)``.

        Built lazily per ``delta_t`` (uniform-width workloads pay one
        broadcast per group per arrival); ``None`` when the span is
        empty or the group has no lanes left.
        """
        key = ("m", delta_t)
        found = self._cache.get(key, _UNSET)
        if found is _UNSET:
            a2, _b2, c2 = self.span(delta_t)
            los = self.group.lane_los
            if c2 > a2 and los is not None:
                segment = self.vals[a2:c2]
                found = (segment >= los[:, None]) & (
                    segment <= self.group.lane_his[:, None]
                )
            else:
                found = None
            self._cache[key] = found
        return found

    def vec_bits(self, delta_t: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane aggregate vectors ``(window non-empty, has later)``.

        One boolean vector pair per (group, delta_t) per arrival: the
        bulk evaluator scatters these into its flat binding columns, so
        the per-operator match decision costs no per-lane python at all.
        """
        key = ("v", delta_t)
        found = self._cache.get(key)
        if found is None:
            mask = self.submask(delta_t)
            if mask is None:
                zeros = np.zeros(len(self.group.lanes), dtype=bool)
                found = (zeros, zeros)
            else:
                a2, b2, _c2 = self.span(delta_t)
                rb = b2 - a2
                width = mask.shape[1]
                if rb <= 0:
                    # No own-window rows: everything in span is later.
                    found = (
                        np.zeros(mask.shape[0], dtype=bool),
                        mask.any(axis=1),
                    )
                elif rb >= width:
                    found = (
                        mask.any(axis=1),
                        np.zeros(mask.shape[0], dtype=bool),
                    )
                else:
                    # Both halves in one ufunc dispatch — the window
                    # and later aggregates are OR-reductions over
                    # adjacent column ranges of the same mask.
                    both = np.logical_or.reduceat(mask, (0, rb), axis=1)
                    found = (both[:, 0], both[:, 1])
            self._cache[key] = found
        return found

    def bits(self, delta_t: float) -> tuple[list[bool], list[bool], list[bool]]:
        """Per-lane aggregates: (span non-empty, window non-empty, has later)."""
        key = ("b", delta_t)
        found = self._cache.get(key)
        if found is not None:
            return found
        window_vec, later_vec = self.vec_bits(delta_t)
        bits = (
            (window_vec | later_vec).tolist(),
            window_vec.tolist(),
            later_vec.tolist(),
        )
        self._cache[key] = bits
        return bits

    def event_pos(self, event: SimpleEvent) -> int | None:
        """Absolute index of the arrival in the group entries (or None)."""
        pos = self._pos
        if pos == -1:
            pos = self.group.index_of(event)
            self._pos = pos
        return pos

    def in_own_window(self, lane: Lane, delta_t: float, pos: int) -> bool:
        """Is the (stored) arrival inside its own slot's seeded window?"""
        a2, b2, _c2 = self.span(delta_t)
        if not a2 <= pos < b2:
            return False
        mask = self.submask(delta_t)
        return mask is not None and bool(mask[lane.index, pos - a2])

    def later_triggers(self, lane: Lane, delta_t: float) -> list[float]:
        """Timestamps of accepted events strictly inside ``(t0, t0 + dt)``."""
        key = ("l", lane.index, delta_t)
        found = self._cache.get(key)
        if found is None:
            a2, b2, _c2 = self.span(delta_t)
            row = self.submask(delta_t)[lane.index]
            offsets = row[b2 - a2 :].nonzero()[0].tolist()
            ts = self.ts
            found = [float(ts[b2 + j]) for j in offsets]
            self._cache[key] = found
        return found

    def window_members(self, lane: Lane, delta_t: float) -> list[SimpleEvent]:
        """The arrival window's accepted events, in reference order.

        Memoised per (lane, delta_t) and *shared* between every
        operator slot backed by the lane — the hot-path forwarding hook
        dedups on the list's identity.
        """
        key = ("w", lane.index, delta_t)
        found = self._cache.get(key)
        if found is None:
            a2, b2, _c2 = self.span(delta_t)
            row = self.submask(delta_t)[lane.index]
            offsets = row[: b2 - a2].nonzero()[0].tolist()
            entries = self.entries
            found = [entries[a2 + j][3] for j in offsets]
            _sort_if_tied(found)
            self._cache[key] = found
        return found

    def union_members(
        self, lane_dts: list[tuple[Lane, float]]
    ) -> list[SimpleEvent]:
        """Distinct events across the given lanes' arrival windows.

        The forwarding hot path: one OR over the participating lanes'
        mask rows (grouped by ``delta_t``, so uniform-width workloads
        pay a single reduction) and one materialisation per group —
        instead of one list per operator slot.  Order is irrelevant:
        the per-link forwarding loop re-sorts its outgoing set by key.
        """
        if len(lane_dts) == 1:
            lane, delta_t = lane_dts[0]
            return self.window_members(lane, delta_t)
        by_dt: dict[float, list[int]] = {}
        for lane, delta_t in lane_dts:
            by_dt.setdefault(delta_t, []).append(lane.index)
        out: list[SimpleEvent] = []
        entries = self.entries
        for delta_t, indices in by_dt.items():
            mask = self.submask(delta_t)
            if mask is None:
                continue
            a2, b2, _c2 = self.span(delta_t)
            rb = b2 - a2
            if rb <= 0:
                continue
            if len(indices) == 1:
                union = mask[indices[0], :rb]
            else:
                union = mask[indices, :rb].any(axis=0)
            for j in union.nonzero()[0].tolist():
                out.append(entries[a2 + j][3])
        return out

    def filtered_entries(self, lane: Lane, delta_t: float) -> list:
        """Masked entry tuples over ``(t0 - dt, t0 + dt)`` for the sweeps.

        This *is* the slice of the per-slot timeline the incremental
        matcher's sweep pointers ever touch, so handing it to the shared
        sweep functions reproduces its trajectory index-for-index.
        """
        key = ("f", lane.index, delta_t)
        found = self._cache.get(key)
        if found is None:
            a2, _b2, _c2 = self.span(delta_t)
            row = self.submask(delta_t)[lane.index]
            offsets = row.nonzero()[0].tolist()
            entries = self.entries
            found = [entries[a2 + j] for j in offsets]
            self._cache[key] = found
        return found


class _ArrivalPlan:
    """All group plans for one (engine version, arriving event)."""

    __slots__ = ("event", "version", "horizon", "groups", "verdicts")

    def __init__(self, event: SimpleEvent, version: int, horizon: float) -> None:
        self.event = event
        self.version = version
        self.horizon = horizon
        self.groups: dict[int, _GroupPlan] = {}
        #: Lazily built bulk match verdicts (see ``_Verdicts``).
        self.verdicts: "_Verdicts | None" = None

    def group_plan(self, group: SharedTimeline) -> _GroupPlan:
        key = id(group)
        found = self.groups.get(key)
        if found is None:
            found = _GroupPlan(group, self.event, self.horizon)
            self.groups[key] = found
        return found


class _SensorIndex:
    """Static bulk-evaluation layout for one ``(sensor, attribute)``.

    Flattens every registered operator a ``(sensor, attribute)`` arrival
    could concern into numpy index arrays, so one reduceat pass decides
    *all* of them at once:

    * each distinct ``(group, delta_t)`` pair becomes a *segment* of
      binding columns (one column per lane of the group);
    * ``win_cols``/``op_offsets`` gather each operator's slot columns
      (CSR layout) for the completeness AND / later-trigger OR;
    * ``cand_los``/``cand_his``/``cand_offsets`` hold the candidate own
      slots (slots drawing from the sensor with the right attribute) so
      own-acceptance is one vectorised interval test.

    Rebuilt lazily whenever the engine's registration state (matchers,
    lanes, groups) changes; event traffic never invalidates it.
    """

    __slots__ = (
        "rows",
        "matchers_by_row",
        "segments",
        "row_segments",
        "n_cols",
        "win_cols",
        "op_offsets",
        "finite",
        "cand_los",
        "cand_his",
        "cand_offsets",
        "member_triples",
        "row_template",
    )

    def __init__(
        self,
        matchers: Iterable["ColumnarMatcher"],
        sensor_id: str,
        attribute: str,
    ) -> None:
        self.rows: dict[ColumnarMatcher, int] = {}
        #: Row-indexed inverse of ``rows`` (bulk iteration order).
        self.matchers_by_row: list[ColumnarMatcher] = []
        #: ``(group, delta_t, column offset, n_lanes)`` per segment.
        self.segments: list[tuple[SharedTimeline, float, int, int]] = []
        #: Segment ids each row's slots draw on — lets the verdict pass
        #: skip window evaluation for segments no accepting row needs.
        self.row_segments: list[list[int]] = []
        segment_offsets: dict[tuple[int, float], tuple[int, int]] = {}
        n_cols = 0
        win_cols: list[int] = []
        op_offsets: list[int] = []
        finite: list[bool] = []
        cand_los: list[float] = []
        cand_his: list[float] = []
        cand_offsets: list[int] = []
        #: Per row, ``(column, group, lane, delta_t)`` per slot in slot
        #: order — the fast-path member resolution recipe.
        self.member_triples: list[list[tuple]] = []
        #: Rows with identical column signatures (near-duplicate
        #: operators) share a template id, so member materialisation is
        #: paid once per template, not once per operator.
        self.row_template: list[int] = []
        template_ids: dict[tuple[int, ...], int] = {}
        for matcher in matchers:
            operator = matcher.operator
            candidates = [
                slot
                for slot in operator.slots
                if sensor_id in slot.sensors and slot.attribute == attribute
            ]
            if not candidates:
                continue
            delta_t = operator.delta_t
            self.rows[matcher] = len(op_offsets)
            self.matchers_by_row.append(matcher)
            op_offsets.append(len(win_cols))
            finite.append(matcher._finite)
            cand_offsets.append(len(cand_los))
            for slot in candidates:
                cand_los.append(slot.interval.lo)
                cand_his.append(slot.interval.hi)
            triples: list[tuple] = []
            seg_ids: list[int] = []
            for group, lane in matcher._slot_lanes:
                seg_key = (id(group), delta_t)
                found = segment_offsets.get(seg_key)
                if found is None:
                    seg_id = len(self.segments)
                    found = (n_cols, seg_id)
                    segment_offsets[seg_key] = found
                    n_lanes = len(group.lanes)
                    self.segments.append((group, delta_t, n_cols, n_lanes))
                    n_cols += n_lanes
                offset, seg_id = found
                column = offset + lane.index
                win_cols.append(column)
                if seg_id not in seg_ids:
                    seg_ids.append(seg_id)
                triples.append((column, group, lane, delta_t))
            self.member_triples.append(triples)
            self.row_segments.append(seg_ids)
            signature = tuple(t[0] for t in triples)
            self.row_template.append(
                template_ids.setdefault(signature, len(template_ids))
            )
        self.n_cols = n_cols
        self.win_cols = np.array(win_cols, dtype=np.intp)
        self.op_offsets = np.array(op_offsets, dtype=np.intp)
        self.finite = np.array(finite, dtype=bool)
        self.cand_los = np.array(cand_los, dtype=np.float64)
        self.cand_his = np.array(cand_his, dtype=np.float64)
        self.cand_offsets = np.array(cand_offsets, dtype=np.intp)


class _Verdicts:
    """Bulk per-operator match verdicts for one arrival.

    ``fast[row]`` — the in-order fast path matches: the result is the
    memoised window list per slot (``index.member_triples[row]``).
    ``slow[row]`` — a match is possible but needs the per-operator
    sweep (late triggers or a finite ``delta_l``).  Neither — no match.
    ``fast is None`` marks the degenerate no-op case (expired arrival
    or nothing registered); callers fall back to the per-matcher path,
    which answers correctly (and just as cheaply) for those.
    """

    __slots__ = ("plan", "index", "fast", "slow", "matched_rows", "tid_lists")

    def __init__(
        self,
        plan: _ArrivalPlan,
        index: _SensorIndex,
        fast: list[bool] | None,
        slow: list[bool] | None,
        matched_rows: list[int] | None = None,
    ) -> None:
        self.plan = plan
        self.index = index
        self.fast = fast
        self.slow = slow
        #: Rows with ``fast or slow`` — the bulk iteration work list
        #: (``None`` mirrors ``fast is None``: fall back per matcher).
        self.matched_rows = matched_rows
        #: Window-list bundles memoised per template id — rows of
        #: near-duplicate operators share one materialisation.
        self.tid_lists: dict[int, list[list[SimpleEvent]]] = {}


class ColumnarMatcher:
    """Per-operator view over the shared group timelines.

    Same query surface and the same answers as
    :class:`~repro.matching.engine.OperatorMatcher`; each slot is a
    (group, lane) pair instead of a private timeline.
    """

    __slots__ = (
        "operator",
        "_engine",
        "_slot_ids",
        "_slot_lanes",
        "_groups",
        "_by_sensor",
        "_finite",
    )

    def __init__(self, operator: CorrelationOperator, engine: "ColumnarEngine") -> None:
        self.operator = operator
        self._engine = engine
        self._slot_ids = [slot.slot_id for slot in operator.slots]
        self._slot_lanes: list[tuple[SharedTimeline, Lane]] = []
        self._by_sensor: dict[str, list[tuple]] = {}
        groups: list[SharedTimeline] = []
        for index, slot in enumerate(operator.slots):
            group = engine._group_for(slot)
            group.note_delta(operator.delta_t)
            lane = group.acquire_lane(
                slot.interval, engine._setfilter, engine._backfill
            )
            self._slot_lanes.append((group, lane))
            if group not in groups:
                groups.append(group)
            entry = (slot.attribute, slot.interval.contains, index)
            for sensor_id in sorted(slot.sensors):
                self._by_sensor.setdefault(sensor_id, []).append(entry)
        self._groups = groups
        self._finite = not math.isinf(operator.delta_l)

    # ------------------------------------------------------------------
    # ingest path (the offline oracle and late backfills; live events
    # route through the engine's group-by-sensor index)
    # ------------------------------------------------------------------
    def ingest(self, event: SimpleEvent) -> None:
        """Index one stored event into every accepting group."""
        for group in self._groups:
            if (
                event.attribute == group.attribute
                and event.sensor_id in group.sensors
                and group.hull_accepts(event.value)
            ):
                group.add(event)
        self._engine._version += 1

    def backfill(self, store: "EventStore") -> None:
        """Index the store's current visible content (late registration)."""
        for sensor_id in sorted(self.operator.sensors):
            for event in store.sensor_events(sensor_id):
                self.ingest(event)

    def fence_sensor(self, sensor_id: str, until: float = _INF) -> int:
        """Drop indexed events of ``sensor_id`` with ``timestamp <= until``.

        On a shared group this fences the sensor for *every* sharer at
        once — exactly what the store-driven churn fence requires, since
        a departed sensor's history is invisible to all of them.
        """
        dropped = 0
        for group in self._groups:
            if sensor_id in group.sensors:
                dropped += group.drop_sensor(sensor_id, until)
        if dropped:
            self._engine._version += 1
        return dropped

    def _prune(self) -> None:
        horizon = self._engine.horizon
        pruned = 0
        for group in self._groups:
            if group.min_timestamp <= horizon:
                pruned += group.drop_until(horizon)
        if pruned:
            self._engine._version += 1

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def _own_slot_index(self, event: SimpleEvent) -> int | None:
        """Index of the first slot accepting ``event`` (reference order)."""
        for attribute, contains, index in self._by_sensor.get(
            event.sensor_id, ()
        ):
            if event.attribute == attribute and contains(event.value):
                return index
        return None

    def matches_involving(self, event: SimpleEvent) -> dict[str, list[SimpleEvent]]:
        """Participants of every match ``event`` takes part in.

        Same contract as :meth:`OperatorMatcher.matches_involving`; the
        returned lists are fresh copies (the memoised window lists are
        shared across operators and must not be mutated by callers).
        """
        result = self._compute_lists(event)
        if result is None:
            return {}
        if isinstance(result, dict):
            return result
        return {
            slot_id: list(members)
            for slot_id, members in zip(self._slot_ids, result)
        }

    def participant_lists(
        self, event: SimpleEvent
    ) -> list[list[SimpleEvent]] | dict[str, list[SimpleEvent]] | None:
        """Hot-path access without dict building; see ``_compute_lists``."""
        return self._compute_lists(event)

    def _compute_lists(
        self, event: SimpleEvent
    ) -> list[list[SimpleEvent]] | dict[str, list[SimpleEvent]] | None:
        """``None`` (no match), a per-slot list of *shared* memoised
        window lists (in-order fast path), or the sweep's result dict.
        """
        own = self._own_slot_index(event)
        if own is None:
            return None
        engine = self._engine
        t0 = event.timestamp
        horizon = engine.horizon
        if t0 <= horizon:
            return None
        delta_t = self.operator.delta_t
        plan = engine._plan_for(event)
        slot_plans: list[tuple[_GroupPlan, int]] = []
        has_later = False
        for group, lane in self._slot_lanes:
            gplan = plan.group_plan(group)
            span_any, _window_any, later_any = gplan.bits(delta_t)
            index = lane.index
            if not span_any[index]:
                return None  # nothing in (t0 - dt, t0 + dt): incomplete
            if later_any[index]:
                has_later = True
            slot_plans.append((gplan, index))
        own_plan, _own_lane = slot_plans[own]
        pos = own_plan.event_pos(event)
        if pos is None:
            # Not stored (duplicate-dropped or expired): the reference
            # scan would find it in no window either.
            return None
        if not has_later:
            # In-order delivery fast path — the arrival is the only
            # candidate trigger and its window bits are already known.
            if not own_plan.in_own_window(self._slot_lanes[own][1], delta_t, pos):
                return None
            for gplan, index in slot_plans:
                if not gplan.bits(delta_t)[1][index]:
                    return None
            if not self._finite:
                return [
                    gplan.window_members(lane, delta_t)
                    for (gplan, _i), (_g, lane) in zip(
                        slot_plans, self._slot_lanes
                    )
                ]
            ordered = [t0]
        else:
            later: set[float] = set()
            for (gplan, _index), (_group, lane) in zip(
                slot_plans, self._slot_lanes
            ):
                later.update(gplan.later_triggers(lane, delta_t))
            later.add(t0)
            ordered = sorted(later)
        # Sweep path: materialise the masked per-slot entry lists and run
        # the exact incremental sweep over them.
        entries: list[list] = []
        lo: list[int] = []
        hi: list[int] = []
        event_pos = -1
        for index, ((gplan, _lane_index), (_group, lane)) in enumerate(
            zip(slot_plans, self._slot_lanes)
        ):
            filtered = gplan.filtered_entries(lane, delta_t)
            entries.append(filtered)
            lo.append(0)
            hi.append(bisect_right(filtered, (t0, _INF)))
            if index == own:
                probe = (event.timestamp, event.seq, event.sensor_id)
                at = bisect_left(filtered, probe)
                if at >= len(filtered) or filtered[at][:3] != probe:
                    return None
                event_pos = at
        if self._finite:
            return sweep_spatial(
                self._slot_ids,
                self.operator.delta_t,
                self.operator.delta_l,
                event,
                ordered,
                entries,
                lo,
                hi,
                own,
                event_pos,
            )
        return sweep_plain(
            self._slot_ids,
            self.operator.delta_t,
            ordered,
            entries,
            lo,
            hi,
            own,
            event_pos,
        )

    # ------------------------------------------------------------------
    # oracle probes (same contracts as OperatorMatcher)
    # ------------------------------------------------------------------
    def _window_events(
        self, slot_index: int, after: float, until: float
    ) -> list[SimpleEvent]:
        group, lane = self._slot_lanes[slot_index]
        ts, vals, n = group.sync()
        entries = group.entries()
        a = int(np.searchsorted(ts[:n], after, side="right"))
        b = int(np.searchsorted(ts[:n], until, side="right"))
        if b <= a:
            return []
        segment = vals[a:b]
        accepted = np.nonzero((segment >= lane.lo) & (segment <= lane.hi))[0]
        return [entries[a + int(j)][3] for j in accepted]

    def instance_exists(self, trigger: SimpleEvent) -> bool:
        """Does a match with maximum member ``trigger`` exist?"""
        operator = self.operator
        own_slot = operator.slot_for_event(trigger)
        if own_slot is None:
            return False
        self._prune()
        after = trigger.timestamp - operator.delta_t
        if after < self._engine.horizon:
            after = self._engine.horizon
        windows = [
            self._window_events(i, after, trigger.timestamp)
            for i in range(len(self._slot_lanes))
        ]
        if not all(windows):
            return False
        if not self._finite:
            return True
        delta_l = operator.delta_l
        own = self._slot_ids.index(own_slot.slot_id)
        location = trigger.location
        lists: list[list[SimpleEvent]] = []
        for i, window in enumerate(windows):
            if i == own:
                lists.append([trigger])
                continue
            near = [
                e for e in window if e.location.distance_to(location) < delta_l
            ]
            if not near:
                return False
            lists.append(near)
        return combination_exists(lists, delta_l)

    def match_at_trigger(
        self, trigger_time: float
    ) -> dict[str, list[SimpleEvent]] | None:
        """Participants of matches whose maximum timestamp is ``trigger_time``."""
        self._prune()
        after = trigger_time - self.operator.delta_t
        if after < self._engine.horizon:
            after = self._engine.horizon
        windows = [
            self._window_events(i, after, trigger_time)
            for i in range(len(self._slot_lanes))
        ]
        if not all(windows):
            return None
        if self._finite:
            kept = participating(windows, self.operator.delta_l)
            if kept is None:
                return None
        else:
            kept = windows
        out: dict[str, list[SimpleEvent]] = {}
        for slot_id, participants in zip(self._slot_ids, kept):
            _sort_if_tied(participants)
            out[slot_id] = participants
        return out


class ColumnarEngine:
    """Shared-timeline matching engine (``matching="columnar"``).

    Same listener protocol and lifecycle surface as
    :class:`~repro.matching.engine.MatchingEngine`.
    """

    _PRUNE_SWEEP_EVERY = 256
    """Store adds between full group-prune sweeps (each check is O(1)
    per group thanks to the min-timestamp guard)."""

    def __init__(self, store: "EventStore | None") -> None:
        self._store = store
        self.horizon = store.horizon if store is not None else -_INF
        self._groups: dict[tuple[str, frozenset[str]], SharedTimeline] = {}
        self._groups_by_sensor: dict[str, list[SharedTimeline]] = {}
        self._matchers: dict[CorrelationOperator, ColumnarMatcher] = {}
        self._refs: dict[CorrelationOperator, int] = {}
        # Deterministic per-engine sampler for coverage decisions; only
        # *certain* verdicts influence backfill elision, so the stream's
        # role is purely to bound re-scan work.
        self._setfilter = ProbabilisticSetFilter()
        self._version = 0
        self._plan: _ArrivalPlan | None = None
        # Bulk layouts per (sensor, attribute); cleared whenever the
        # registration state (matchers, lanes, groups) changes.
        self._sensor_index: dict[tuple[str, str], _SensorIndex] = {}
        self._adds_since_sweep = 0
        if store is not None:
            store.add_listener(self)

    @classmethod
    def offline(cls) -> "ColumnarEngine":
        """Store-less engine for the offline oracle truth pass."""
        return cls(None)

    # ------------------------------------------------------------------
    # EventStore listener protocol
    # ------------------------------------------------------------------
    def event_added(self, event: SimpleEvent) -> None:
        groups = self._groups_by_sensor.get(event.sensor_id)
        if groups:
            attribute = event.attribute
            value = event.value
            for group in groups:
                if group.attribute == attribute and group.hull_accepts(value):
                    group.add(event)
        self._version += 1
        self._adds_since_sweep += 1
        if self._adds_since_sweep >= self._PRUNE_SWEEP_EVERY:
            self._adds_since_sweep = 0
            horizon = self.horizon
            for group in self._groups.values():
                if group.min_timestamp <= horizon:
                    group.drop_until(horizon)

    def horizon_advanced(self, horizon: float) -> None:
        self.horizon = horizon
        self._version += 1

    def sensor_fenced(self, sensor_id: str) -> None:
        """Mirror a store fence: drop the sensor from every group."""
        for group in self._groups_by_sensor.get(sensor_id, ()):
            group.drop_sensor(sensor_id)
        self._version += 1

    # ------------------------------------------------------------------
    # groups & backfill
    # ------------------------------------------------------------------
    def _group_for(self, slot) -> SharedTimeline:
        key = (slot.attribute, slot.sensors)
        group = self._groups.get(key)
        if group is None:
            group = SharedTimeline(slot.attribute, slot.sensors)
            self._groups[key] = group
            for sensor_id in sorted(slot.sensors):
                self._groups_by_sensor.setdefault(sensor_id, []).append(group)
            self._version += 1
        return group

    def _backfill(self, group: SharedTimeline, interval: "Interval") -> None:
        """Admit the store's visible events a widened hull now accepts."""
        store = self._store
        if store is None:
            return
        present = {entry[:3] for entry in group.entries()}
        contains = interval.contains
        attribute = group.attribute
        for sensor_id in sorted(group.sensors):
            for event in store.sensor_events(sensor_id):
                if (
                    event.attribute == attribute
                    and contains(event.value)
                    and (event.timestamp, event.seq, event.sensor_id)
                    not in present
                ):
                    group.add(event)
        self._version += 1

    def _plan_for(self, event: SimpleEvent) -> _ArrivalPlan:
        plan = self._plan
        if (
            plan is None
            or plan.event is not event
            or plan.version != self._version
        ):
            plan = _ArrivalPlan(event, self._version, self.horizon)
            self._plan = plan
        return plan

    # ------------------------------------------------------------------
    # bulk arrival evaluation
    # ------------------------------------------------------------------
    def _sensor_index_for(self, sensor_id: str, attribute: str) -> _SensorIndex:
        key = (sensor_id, attribute)
        index = self._sensor_index.get(key)
        if index is None:
            index = _SensorIndex(
                self._matchers.values(), sensor_id, attribute
            )
            self._sensor_index[key] = index
        return index

    def _verdicts_for(self, event: SimpleEvent) -> _Verdicts:
        """Match verdicts for every registered operator the arrival
        could concern, decided in one vectorised pass.

        The decision procedure is exactly the per-matcher fast path
        (``ColumnarMatcher._compute_lists``), evaluated for all
        operators at once: an operator matches in order iff one of its
        slots on the arriving sensor accepts the value, every slot's
        arrival window is non-empty, and no slot sees a later candidate
        trigger; later triggers or a finite ``delta_l`` defer to the
        per-operator sweep.  The equivalence fence pins the two paths
        to identical answers.
        """
        plan = self._plan_for(event)
        verdicts = plan.verdicts
        if verdicts is not None:
            return verdicts
        index = self._sensor_index_for(event.sensor_id, event.attribute)
        if not index.rows or event.timestamp <= self.horizon:
            verdicts = _Verdicts(plan, index, None, None)
            plan.verdicts = verdicts
            return verdicts
        value = event.value
        accepts = np.bitwise_or.reduceat(
            (value >= index.cand_los) & (value <= index.cand_his),
            index.cand_offsets,
        )
        accept_rows = accepts.nonzero()[0]
        if not accept_rows.size:
            # Nothing registered on the sensor accepts the value: every
            # verdict is a cheap no — no window evaluation at all.
            falses = accepts.tolist()
            verdicts = _Verdicts(plan, index, falses, falses, [])
            plan.verdicts = verdicts
            return verdicts
        segments = index.segments
        if len(accept_rows) * 4 < len(index.rows):
            # Selective arrival: only evaluate the window bits of the
            # segments an accepting operator actually draws on.  The
            # flat columns of the remaining segments stay garbage —
            # every term below is gated by ``accepts``, so rows that
            # read them are already decided to be False.
            needed: set[int] = set()
            row_segments = index.row_segments
            for row in accept_rows.tolist():
                needed.update(row_segments[row])
            segments = [segments[i] for i in sorted(needed)]
        window_flat = np.empty(index.n_cols, dtype=bool)
        later_flat = np.empty(index.n_cols, dtype=bool)
        for group, delta_t, offset, n_lanes in segments:
            window_vec, later_vec = plan.group_plan(group).vec_bits(delta_t)
            window_flat[offset : offset + n_lanes] = window_vec
            later_flat[offset : offset + n_lanes] = later_vec
        window_sel = window_flat[index.win_cols]
        later_sel = later_flat[index.win_cols]
        offsets = index.op_offsets
        win_ok = np.bitwise_and.reduceat(window_sel, offsets)
        later_op = np.bitwise_or.reduceat(later_sel, offsets)
        span_ok = np.bitwise_and.reduceat(window_sel | later_sel, offsets)
        finite = index.finite
        fast = accepts & win_ok & ~later_op & ~finite
        slow = accepts & span_ok & (later_op | (finite & win_ok))
        matched = (fast | slow).nonzero()[0].tolist()
        verdicts = _Verdicts(
            plan, index, fast.tolist(), slow.tolist(), matched
        )
        plan.verdicts = verdicts
        return verdicts

    # ------------------------------------------------------------------
    # matcher lifecycle (mirrors MatchingEngine)
    # ------------------------------------------------------------------
    def matcher(self, operator: CorrelationOperator) -> ColumnarMatcher:
        """Get or create (and share/backfill) the matcher for ``operator``."""
        found = self._matchers.get(operator)
        if found is None:
            found = ColumnarMatcher(operator, self)
            self._matchers[operator] = found
            self._version += 1
            self._sensor_index.clear()
        return found

    def register(
        self, operators: Iterable[CorrelationOperator] | CorrelationOperator
    ) -> None:
        """Eagerly create matchers (the ``SubscriptionStore.add`` hook)."""
        if isinstance(operators, CorrelationOperator):
            self.matcher(operators)
        else:
            for operator in operators:
                self.matcher(operator)

    def retain(self, operator: CorrelationOperator) -> ColumnarMatcher:
        """Get the operator's matcher and count a long-lived reference."""
        matcher = self.matcher(operator)
        self._refs[operator] = self._refs.get(operator, 0) + 1
        return matcher

    def release(self, operator: CorrelationOperator) -> None:
        """Drop one reference; tear the matcher down at zero.

        Teardown releases every lane the matcher held; lanes (and with
        them hull coverage and groups) disappear with their last sharer,
        so the engine ends observationally as if the operator had never
        been registered — shared storage may retain events no remaining
        lane accepts, but every mask hides them.
        """
        remaining = self._refs.get(operator, 0) - 1
        if remaining > 0:
            self._refs[operator] = remaining
            return
        self._refs.pop(operator, None)
        matcher = self._matchers.pop(operator, None)
        if matcher is None:
            return
        for group, lane in matcher._slot_lanes:
            group.release_lane(lane)
        for group in matcher._groups:
            if not group.lanes:
                del self._groups[(group.attribute, group.sensors)]
                for sensor_id in sorted(group.sensors):
                    listed = self._groups_by_sensor.get(sensor_id)
                    if listed is not None:
                        listed.remove(group)
                        if not listed:
                            del self._groups_by_sensor[sensor_id]
        self._version += 1
        self._sensor_index.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def matches_involving(
        self, operator: CorrelationOperator, event: SimpleEvent
    ) -> dict[str, list[SimpleEvent]]:
        """Drop-in replacement for the reference ``matches_involving``."""
        return self.matcher(operator).matches_involving(event)

    def instance_exists(
        self, operator: CorrelationOperator, trigger: SimpleEvent
    ) -> bool:
        """Drop-in replacement for the reference ``instance_exists``."""
        return self.matcher(operator).instance_exists(trigger)

    def forward_members(
        self, pairs: Iterable[tuple], event: SimpleEvent
    ) -> Iterator[SimpleEvent]:
        """Participants across matching operators, for the forward path.

        The forwarding loop only needs the *union* of the matching
        operators' participants per link (its outgoing set dedups by
        key and re-sorts), so the participating lanes are collected by
        column id and materialised once per group via an OR-mask —
        per-operator member lists are never built.  The returned chain
        may contain duplicates (an event can be stored in several
        sensor-set groups); the caller's key dedup absorbs them.
        """
        verdicts = self._verdicts_for(event)
        fast = verdicts.fast
        rows = verdicts.index.rows
        triples = verdicts.index.member_triples
        group_plans = verdicts.plan.groups
        parts: list[list[SimpleEvent]] = []
        per_group: dict[int, list[tuple[Lane, float]]] = {}
        seen: set[int] = set()
        for _operator, matcher in pairs:
            row = rows.get(matcher, -1) if fast is not None else -1
            if row >= 0:
                if fast[row]:
                    for column, group, lane, delta_t in triples[row]:
                        if column not in seen:
                            seen.add(column)
                            per_group.setdefault(id(group), []).append(
                                (lane, delta_t)
                            )
                    continue
                if not verdicts.slow[row]:
                    continue
            result = matcher._compute_lists(event)
            if not result:
                continue
            if isinstance(result, dict):
                parts.extend(result.values())
            else:
                parts.extend(result)
        for group_id, lane_dts in per_group.items():
            parts.append(group_plans[group_id].union_members(lane_dts))
        return chain.from_iterable(parts)

    def delivered_members(
        self, matcher: ColumnarMatcher, event: SimpleEvent
    ) -> "Iterable[SimpleEvent] | None":
        """Participants for local delivery, or None on no match.

        Single-use iterable: the fast path chains the *shared* memoised
        window lists without copying them — the delivery log consumes
        the chain once and dedups members by key.
        """
        verdicts = self._verdicts_for(event)
        fast = verdicts.fast
        if fast is not None:
            row = verdicts.index.rows.get(matcher, -1)
            if row >= 0:
                if fast[row]:
                    lists = self._fast_lists(verdicts, row)
                    if len(lists) == 1:
                        return lists[0]
                    return chain.from_iterable(lists)
                if not verdicts.slow[row]:
                    return None
        result = matcher._compute_lists(event)
        # An empty sweep dict means no match — a real match always
        # contains the arrival itself, so flat-empty cannot be a match.
        if not result:
            return None
        if isinstance(result, dict):
            return chain.from_iterable(result.values())
        return chain.from_iterable(result)

    def _fast_lists(
        self, verdicts: _Verdicts, row: int
    ) -> list[list[SimpleEvent]]:
        """The row's per-slot shared window lists, memoised per template."""
        index = verdicts.index
        tid = index.row_template[row]
        lists = verdicts.tid_lists.get(tid)
        if lists is None:
            group_plans = verdicts.plan.groups
            lists = [
                group_plans[id(group)].window_members(lane, delta_t)
                for _column, group, lane, delta_t in index.member_triples[row]
            ]
            verdicts.tid_lists[tid] = lists
        return lists

    def iter_matched(
        self, event: SimpleEvent
    ) -> Iterator[tuple[ColumnarMatcher, "Iterable[SimpleEvent]"]]:
        """Yield ``(matcher, participants)`` for every matching operator.

        The bulk query the columnar layout exists for: one vectorised
        verdict pass decides all registered operators, then only the
        matching rows are visited — per-operator python is never spent
        on non-matching operators.  Participant iterables are single-use
        chains over the shared memoised window lists.
        """
        verdicts = self._verdicts_for(event)
        matched_rows = verdicts.matched_rows
        index = verdicts.index
        if matched_rows is None:
            # Degenerate arrival (expired or nothing registered): the
            # per-matcher fallback answers correctly and cheaply.
            for matcher in index.rows:
                members = self.delivered_members(matcher, event)
                if members is not None:
                    yield matcher, members
            return
        fast = verdicts.fast
        matchers = index.matchers_by_row
        for row in matched_rows:
            matcher = matchers[row]
            if fast[row]:
                lists = self._fast_lists(verdicts, row)
                yield matcher, (
                    lists[0] if len(lists) == 1 else chain.from_iterable(lists)
                )
                continue
            result = matcher._compute_lists(event)
            if not result:
                continue
            if isinstance(result, dict):
                yield matcher, chain.from_iterable(result.values())
            else:
                yield matcher, chain.from_iterable(result)

    def operators(self) -> list[CorrelationOperator]:
        """Every retained operator, sorted by ``op_id`` (same contract
        as :meth:`MatchingEngine.operators`)."""
        return sorted(self._refs, key=lambda operator: operator.op_id)

    @property
    def n_matchers(self) -> int:
        return len(self._matchers)
