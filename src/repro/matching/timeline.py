"""Append-mostly sorted event timelines with zero-copy window views.

Events reach a node *near*-ordered: sensors publish in timestamp order
and link latencies are uniform, so out-of-order arrivals are rare and
shallow.  ``bisect.insort`` pays O(n) memmove per insert regardless;
appending and deferring to one timsort pass (O(n) on nearly sorted
input) amortises to O(1) per event.  Window queries return lightweight
*views* — (entries, lo, hi) triples satisfying the sequence protocol —
so the matcher sweep never copies slices of the hot timelines.

Entries are ``(timestamp, seq, sensor_id, event)`` tuples: a matcher
slot timeline mixes events of several sensors, and ``(sensor_id, seq)``
is the only network-wide unique identity, so the ``sensor_id``
component is what keeps the ordering total without ever comparing
events themselves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

from ..model.events import SimpleEvent

_INF = float("inf")

Entry = tuple[float, int, str, SimpleEvent]


class TimelineView(Sequence[SimpleEvent]):
    """Zero-copy window over a sorted timeline: events in ``[lo, hi)``.

    Valid until the underlying timeline mutates; consumers use a view
    immediately after the query that produced it (the matcher sweep and
    the reference matcher both do).
    """

    __slots__ = ("_entries", "_lo", "_hi")

    def __init__(self, entries: list[Entry], lo: int, hi: int) -> None:
        self._entries = entries
        self._lo = lo
        self._hi = hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __bool__(self) -> bool:
        return self._hi > self._lo

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step != 1:
                return [self._entries[self._lo + i][-1] for i in range(lo, hi, step)]
            return TimelineView(self._entries, self._lo + lo, self._lo + hi)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._entries[self._lo + index][-1]

    def __iter__(self) -> Iterator[SimpleEvent]:
        for i in range(self._lo, self._hi):
            yield self._entries[i][-1]


def append_to(timelines: Iterable["Timeline"], entry: Entry) -> None:
    """Append one entry to each of ``timelines``; order is restored
    lazily at the next query.

    Entries are immutable and no drop ever rewrites one, so the engine
    appends one tuple per arrival to every timeline that accepts it.
    The order test reads the tracked ``max_timestamp`` first: an entry
    stamped after everything held keeps the timeline sorted, one
    stamped before makes it unsorted, and only a tie with the newest
    timestamp compares tuples.
    """
    timestamp = entry[0]
    for timeline in timelines:
        entries = timeline._entries
        if timestamp > timeline.max_timestamp:
            timeline.max_timestamp = timestamp
            if not entries:
                timeline.min_timestamp = timestamp
        else:
            if not timeline._dirty and (
                timestamp < timeline.max_timestamp or entry < entries[-1]
            ):
                timeline._dirty = True
            if timestamp < timeline.min_timestamp:
                timeline.min_timestamp = timestamp
        entries.append(entry)


class Timeline:
    """Sorted-by-(timestamp, seq, sensor) event sequence, lazily kept."""

    __slots__ = ("_entries", "_dirty", "min_timestamp", "max_timestamp")

    def __init__(self) -> None:
        self._entries: list[Entry] = []
        self._dirty = False
        self.min_timestamp = _INF
        # Tracked, not read off ``_entries[-1]``: a lazily unsorted
        # timeline's newest entry need not be its last.
        self.max_timestamp = -_INF

    def __bool__(self) -> bool:
        return bool(self._entries)

    # ------------------------------------------------------------------
    def add(self, event: SimpleEvent) -> None:
        """Append (:func:`append_to` for one timeline); order is restored
        lazily at the next query."""
        append_to((self,), (event.timestamp, event.seq, event.sensor_id, event))

    def entries(self) -> list[Entry]:
        """The sorted backing list (shared, do not mutate)."""
        if self._dirty:
            self._entries.sort()
            self._dirty = False
        return self._entries

    # ------------------------------------------------------------------
    # range queries — all bounds follow the paper's half-open windows
    # ------------------------------------------------------------------
    def span(self, after: float, until: float) -> tuple[int, int]:
        """Index range of events with ``after < timestamp <= until``."""
        entries = self.entries()
        lo = bisect_right(entries, (after, _INF))
        hi = bisect_right(entries, (until, _INF))
        return lo, hi

    def view(self, after: float, until: float) -> TimelineView:
        lo, hi = self.span(after, until)
        return TimelineView(self._entries, lo, hi)

    def index_of(self, event: SimpleEvent) -> int | None:
        """Index of ``event`` (by key), or None when absent."""
        entries = self.entries()
        probe = (event.timestamp, event.seq, event.sensor_id)
        i = bisect_left(entries, probe)
        if i < len(entries) and entries[i][:3] == probe:
            return i
        return None

    def drop_sensor(self, sensor_id: str, until: float = _INF) -> int:
        """Remove entries of ``sensor_id`` with ``timestamp <= until``.

        The churn fence: when a sensor departs, its pre-departure
        history must leave every slot timeline it was indexed into.
        Mutates the backing list in place (live views keep observing the
        timeline, same as :meth:`drop_until`); returns the number of
        entries removed.  O(n) — churn transitions are orders of
        magnitude rarer than event arrivals.
        """
        entries = self._entries
        kept = [
            entry
            for entry in entries
            if entry[2] != sensor_id or entry[0] > until
        ]
        dropped = len(entries) - len(kept)
        if dropped:
            entries[:] = kept
            self.min_timestamp = min((entry[0] for entry in entries), default=_INF)
            self.max_timestamp = max((entry[0] for entry in entries), default=-_INF)
        return dropped

    # ------------------------------------------------------------------
    def drop_until(self, horizon: float) -> list[SimpleEvent]:
        """Remove and return every event with ``timestamp <= horizon``."""
        if horizon < self.min_timestamp:  # cheap no-op guard (hot path)
            return []
        entries = self.entries()
        cut = bisect_right(entries, (horizon, _INF))
        if cut == 0:
            return []
        removed = [entry[-1] for entry in entries[:cut]]
        del entries[:cut]
        if entries:
            self.min_timestamp = entries[0][0]
        else:
            self.min_timestamp = _INF
            self.max_timestamp = -_INF
        return removed
