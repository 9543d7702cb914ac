"""Per-node event storage ``U`` (Figure 2 / Algorithm 5).

All received simple events are stored together, indexed by producing
sensor and ordered by timestamp, so the window matcher can ask for
"events of sensor d with ``after < t <= until``" in logarithmic time.
Events have a finite validity (Section IV-B): once older than the
current time minus the validity they can no longer take part in any
correlation (validity > delta_t by construction) and are pruned, which
bounds node memory exactly as the paper argues.

Two performance properties matter on the ingest hot path:

* events arrive *near*-ordered, so timelines append and re-sort lazily
  (one timsort pass over nearly sorted data is O(n)) instead of paying
  ``bisect.insort``'s O(n) memmove per insert;
* window queries return zero-copy :class:`TimelineView`\\ s over the
  sorted backing lists.

Expiry is governed by a store-wide monotone **horizon** (the largest
``now − validity`` any insert or prune has observed): every query
clamps below it, so an event is visible iff ``timestamp > horizon``
regardless of which per-sensor timeline physical pruning last touched.
Listeners (the incremental matching engine) mirror the store through
``event_added`` / ``horizon_advanced`` callbacks and therefore agree
with every query — the invariant the matcher-equivalence property
tests lean on.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from ..matching.timeline import Timeline, TimelineView
from ..model import checks
from ..model.events import EventKey, SimpleEvent


class StoreListener(Protocol):
    """Mirroring protocol for consumers of store mutations."""

    def event_added(self, event: SimpleEvent) -> None: ...

    def horizon_advanced(self, horizon: float) -> None: ...

    def sensor_fenced(self, sensor_id: str) -> None: ...


class EventStore:
    """Timestamp-ordered, sensor-indexed set of unexpired events."""

    def __init__(self, validity: float) -> None:
        checks.positive(self, validity=validity)
        self.validity = validity
        self._by_sensor: dict[str, Timeline] = {}
        self._keys: set[EventKey] = set()
        self._horizon = float("-inf")
        self._fences: dict[str, float] = {}
        self._listeners: list[StoreListener] = []
        # Keys dropped by insert-time pruning, owed to the next prune().
        self._pruned_at_insert: list[EventKey] = []

    # ------------------------------------------------------------------
    def add_listener(self, listener: StoreListener) -> None:
        self._listeners.append(listener)

    @property
    def horizon(self) -> float:
        """Expiry cutoff: only events with ``timestamp > horizon`` are
        visible to queries."""
        return self._horizon

    # ------------------------------------------------------------------
    def add(self, event: SimpleEvent, now: float) -> bool:
        """Insert ``event``; False when it is a duplicate or expired.

        Insertion lazily prunes the sensor's timeline, so memory stays
        bounded without a periodic sweep timer (the simulator agenda can
        then run to quiescence).  What it removes is reported by the
        next :meth:`prune`.
        """
        if event.key in self._keys:
            return False
        if now - event.timestamp > self.validity:
            return False
        fence = self._fences.get(event.sensor_id)
        if fence is not None and event.timestamp <= fence:
            return False  # pre-departure straggler of a retracted sensor
        self._advance_horizon(now - self.validity)
        timeline = self._by_sensor.get(event.sensor_id)
        if timeline is None:
            timeline = self._by_sensor[event.sensor_id] = Timeline()
        timeline.add(event)
        self._keys.add(event.key)
        self._pruned_at_insert.extend(self._prune_sensor(event.sensor_id))
        for listener in self._listeners:
            listener.event_added(event)
        return True

    def _advance_horizon(self, horizon: float) -> None:
        if horizon > self._horizon:
            self._horizon = horizon
            for listener in self._listeners:
                listener.horizon_advanced(horizon)

    # ------------------------------------------------------------------
    # churn fences
    # ------------------------------------------------------------------
    def fence_sensor(self, sensor_id: str, now: float) -> list[EventKey]:
        """Retract a departed sensor's history; returns the removed keys.

        Called when an advertisement retraction arrives: the sensor's
        stored events are dropped, listeners mirror the drop
        (``sensor_fenced``), and until :meth:`unfence_sensor` any
        arriving event of the sensor stamped at or before ``now`` is
        rejected — a forwarded copy of pre-departure history must not
        re-enter through a slower path after the fence.  Returned keys
        let the node clean its per-event forwarded-to flags, exactly as
        :meth:`prune` does.
        """
        fence = max(now, self._fences.get(sensor_id, float("-inf")))
        self._fences[sensor_id] = fence
        removed: list[EventKey] = []
        timeline = self._by_sensor.pop(sensor_id, None)
        if timeline:
            removed = [e.key for e in timeline.drop_until(float("inf"))]
            self._keys.difference_update(removed)
        for listener in self._listeners:
            listener.sensor_fenced(sensor_id)
        return removed

    def unfence_sensor(self, sensor_id: str) -> None:
        """Lift the fence when the sensor re-advertises (re-join)."""
        self._fences.pop(sensor_id, None)

    def __contains__(self, key: EventKey) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    # ------------------------------------------------------------------
    # the SlotEventProvider interface used by repro.model.matching
    # ------------------------------------------------------------------
    def events_for_sensor(
        self, sensor_id: str, after: float, until: float
    ) -> Sequence[SimpleEvent]:
        """Stored events of ``sensor_id`` with ``after < t <= until``."""
        timeline = self._by_sensor.get(sensor_id)
        if not timeline:
            return ()
        return timeline.view(max(after, self._horizon), until)

    def sensor_events(self, sensor_id: str) -> Sequence[SimpleEvent]:
        """Every visible event of ``sensor_id`` (matcher backfill)."""
        timeline = self._by_sensor.get(sensor_id)
        if not timeline:
            return ()
        return timeline.view(self._horizon, float("inf"))

    # ------------------------------------------------------------------
    def prune(self, now: float) -> list[EventKey]:
        """Drop every expired event; returns the removed keys.

        Callers use the removed keys to clean their per-event
        forwarded-to flags, so the keys inserts have pruned since the
        last call are returned with them.
        """
        self._advance_horizon(now - self.validity)
        removed = self._pruned_at_insert
        self._pruned_at_insert = []
        for sensor_id in list(self._by_sensor):
            removed.extend(self._prune_sensor(sensor_id))
        return removed

    def _prune_sensor(self, sensor_id: str) -> list[EventKey]:
        timeline = self._by_sensor.get(sensor_id)
        if not timeline:
            return []
        dropped = timeline.drop_until(self._horizon)
        if not dropped:
            return []
        removed = [event.key for event in dropped]
        self._keys.difference_update(removed)
        if not timeline:
            del self._by_sensor[sensor_id]
        return removed
