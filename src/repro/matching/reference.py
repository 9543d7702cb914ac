"""The reference matcher behind the engine interface: every answer
rescans the store through :func:`repro.model.matching.matches_involving`
— the oracle the differential fences compare :class:`MatchingEngine`
against.  No network runs on it: the test suite pairs it with each
node's engine over the same store (a shadow) and compares the two hit
maps, operator by operator, at every arrival.
"""

from __future__ import annotations

from ..model.matching import matches_involving


class _ReferenceMatcher:
    def __init__(self, operator, store) -> None:
        self._operator = operator
        self._store = store

    def matches_involving(self, event):
        return matches_involving(self._operator, self._store, event)


class ReferenceEngine:
    """``MatchingEngine``'s contract the slow way: one matcher per
    retained operator, refcounted (an unpaired :meth:`release` raises
    ``KeyError``), and an arrival's hit map built by rescanning every
    retained operator that draws from its sensor."""

    def __init__(self, store) -> None:
        self._store = store
        # operator -> [its one matcher, references held]
        self._held: dict = {}
        self._hits_event = None
        self._hits: dict = {}
        store.add_listener(self)

    def event_added(self, event) -> None:
        self._hits_event = event
        self._hits = hits = {}
        for operator, (matcher, _refs) in self._held.items():
            if event.sensor_id in operator.sensors:
                found = matcher.matches_involving(event)
                if found:
                    hits[matcher] = found

    def horizon_advanced(self, horizon: float) -> None:
        self._hits_event = None

    def sensor_fenced(self, sensor_id: str) -> None:
        self._hits_event = None

    def hits(self, event) -> dict:
        if event is not self._hits_event:
            raise LookupError(f"no hit map for {event!r}")
        return self._hits

    def retain(self, operator) -> _ReferenceMatcher:
        held = self._held.get(operator)
        if held is None:
            held = self._held[operator] = [
                _ReferenceMatcher(operator, self._store),
                0,
            ]
        held[1] += 1
        return held[0]

    def release(self, operator) -> None:
        held = self._held[operator]
        held[1] -= 1
        if not held[1]:
            del self._held[operator]

    def operators(self) -> list:
        return sorted(self._held, key=lambda operator: operator.op_id)
