"""Events — sensor readings and their correlated combinations.

Section IV-A: a measurement of sensor ``d`` publishes an event
``e_d = (a_d, p_d, v, t)``.  Complex events are sets of simple events, one
per sensor (identified subscriptions) or per attribute type (abstract
subscriptions), whose timestamps all lie within ``delta_t`` of the
maximum timestamp.

Every simple event additionally carries the producing sensor's id and a
per-sensor sequence number; ``(sensor_id, seq)`` is the identity used by
the per-link forwarding flags of the publish/subscribe event propagation
(Algorithm 5 sends no data unit twice over the same link).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .locations import Location, spatial_span

EventKey = tuple[str, int]
"""Network-wide identity of a simple event: ``(sensor_id, seq)``."""


@dataclass(frozen=True, slots=True)
class SimpleEvent:
    """One sensor reading ``(a_d, p_d, v, t)`` plus provenance."""

    sensor_id: str
    attribute: str
    location: Location
    value: float
    timestamp: float
    seq: int = 0

    def __post_init__(self) -> None:
        # Pin timestamps (and values) to float so every comparison —
        # bisect probes against ``(t, seq, …)`` tuples, jittered arrival
        # times from LinkFault — happens in one dtype: a stray ``int``
        # timestamp would make tuple comparisons disagree on mixed-type
        # ties.
        if type(self.timestamp) is not float:
            object.__setattr__(self, "timestamp", float(self.timestamp))
        if type(self.value) is not float:
            object.__setattr__(self, "value", float(self.value))

    @property
    def key(self) -> EventKey:
        """Identity used for duplicate suppression on links."""
        return (self.sensor_id, self.seq)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"e({self.sensor_id}:{self.attribute}={self.value:g} "
            f"@t={self.timestamp:g})"
        )


@dataclass(frozen=True)
class ComplexEvent:
    """A correlated combination of simple events.

    Construction sorts the members deterministically; the matching rules
    (completeness, per-member filter match, timestamp and spatial
    correlation) live in :mod:`repro.model.matching` — a ``ComplexEvent``
    is just the value object handed to subscribers.
    """

    events: tuple[SimpleEvent, ...]

    def __init__(self, events: Iterable[SimpleEvent]) -> None:
        ordered = tuple(
            sorted(events, key=lambda e: (e.timestamp, e.sensor_id, e.seq))
        )
        if not ordered:
            raise ValueError("a complex event needs at least one simple event")
        object.__setattr__(self, "events", ordered)

    @property
    def timestamp(self) -> float:
        """The event time ``t = max_i t_i`` (matching condition 3)."""
        return max(e.timestamp for e in self.events)

    @property
    def temporal_spread(self) -> float:
        """``t - min_i t_i``; below ``delta_t`` for any valid match."""
        times = [e.timestamp for e in self.events]
        return max(times) - min(times)

    @property
    def spatial_spread(self) -> float:
        """Largest pairwise distance between member locations."""
        return spatial_span([e.location for e in self.events])

    @property
    def sensor_ids(self) -> frozenset[str]:
        return frozenset(e.sensor_id for e in self.events)

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset(e.attribute for e in self.events)

    @property
    def trigger(self) -> SimpleEvent:
        """The member realising the maximum timestamp.

        Ties break deterministically on ``(sensor_id, seq)``; the trigger
        identifies a match *instance* for the recall metric.
        """
        return max(self.events, key=lambda e: (e.timestamp, e.sensor_id, e.seq))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True, slots=True)
class MatchInstance:
    """A delivered/true match, identified by subscription and trigger.

    Two complex events with the same trigger for the same subscription
    are the same *instance*: the paper counts each satisfied condition
    once, and the recall metric (Fig. 12) compares delivered instances
    against the oracle's.
    """

    subscription_id: str
    trigger: EventKey
