"""End-user delivery accounting.

Every approach ultimately hands simple events (or assembled complex
events) to the subscribing user.  The log records, per subscription,
exactly which simple events reached the user; the recall metric then
replays the matching semantics over this delivered subset and compares
against the offline oracle (see ``repro.metrics``).
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import Iterable, Mapping, Sequence

from ..model.events import EventKey, SimpleEvent


class _DeliveredView:
    """SlotEventProvider over one subscription's delivered events."""

    def __init__(self, events: Iterable[SimpleEvent]) -> None:
        self._by_sensor: dict[str, list[tuple[float, int, SimpleEvent]]] = {}
        for event in events:
            self._by_sensor.setdefault(event.sensor_id, []).append(
                (event.timestamp, event.seq, event)
            )
        for timeline in self._by_sensor.values():
            timeline.sort()

    def events_for_sensor(
        self, sensor_id: str, after: float, until: float
    ) -> Sequence[SimpleEvent]:
        timeline = self._by_sensor.get(sensor_id)
        if not timeline:
            return ()
        lo = bisect.bisect_right(timeline, (after, float("inf")))
        hi = bisect.bisect_right(timeline, (until, float("inf")))
        return [entry[2] for entry in timeline[lo:hi]]


class DeliveryLog:
    """What each subscriber actually received."""

    def __init__(self) -> None:
        self._events: dict[str, dict[EventKey, SimpleEvent]] = {}
        self.complex_deliveries: Counter[str] = Counter()
        self.registered: set[str] = set()
        self._generation: Counter[str] = Counter()

    def register(self, sub_id: str) -> None:
        """Announce a subscription so zero-delivery cases are visible."""
        self.registered.add(sub_id)
        self._events.setdefault(sub_id, {})

    def record_events(self, sub_id: str, events: Iterable[SimpleEvent]) -> None:
        bucket = self._events.setdefault(sub_id, {})
        for event in events:
            bucket[event.key] = event

    def record_complex(self, sub_id: str) -> None:
        self.complex_deliveries[sub_id] += 1

    def reset(self, sub_id: str) -> None:
        """Forget a subscription's delivered history (id reuse).

        A subscription id resubmitted after cancellation is a new
        incarnation: its log starts empty so the old incarnation's
        deliveries never pollute the new one's results or recall.  The
        id stays registered; the generation counter ticks so consumers
        caching per-log-state results (``QueryHandle.matches``) notice.
        """
        self._events[sub_id] = {}
        self.complex_deliveries.pop(sub_id, None)
        self._generation[sub_id] += 1

    def generation(self, sub_id: str) -> int:
        """How many times this id's log was reset (cache invalidation)."""
        return self._generation[sub_id]

    # ------------------------------------------------------------------
    def delivered(self, sub_id: str) -> Mapping[EventKey, SimpleEvent]:
        return self._events.get(sub_id, {})

    def delivered_count(self, sub_id: str) -> int:
        return len(self._events.get(sub_id, {}))

    def view(self, sub_id: str) -> _DeliveredView:
        """Matching-compatible provider over the delivered events."""
        return _DeliveredView(self._events.get(sub_id, {}).values())

    def subscriptions(self) -> list[str]:
        return sorted(self.registered | set(self._events))
