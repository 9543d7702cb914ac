"""Filters — range conditions on sensor events (Section IV-A).

The paper defines three filter flavours:

* a **simple filter** ``f_a``: a range condition ``min <= a <= max`` (or
  ``a = v``) on one attribute type;
* a **simple filter with identification** ``f_d``: a simple filter pinned
  to one concrete sensor via its location/id;
* an **abstract filter** ``F_{A,L}``: per-attribute simple filters
  constrained to sensors inside a region ``L``.

Complex filters with identification (``F_D``) are represented at the
subscription level as mappings from sensor id to identified filter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import SimpleEvent
from .intervals import Interval
from .locations import Region


@dataclass(frozen=True, slots=True)
class SimpleFilter:
    """``min <= a <= max`` over one attribute type."""

    attribute: str
    interval: Interval

    def __post_init__(self) -> None:
        if self.interval.is_empty:
            raise ValueError(
                f"filter on {self.attribute!r} has an empty range; "
                "unsatisfiable filters must be rejected at creation"
            )

    def matches_event(self, event: SimpleEvent) -> bool:
        """Attribute-typed value test (no identity/region constraint)."""
        return event.attribute == self.attribute and self.interval.contains(
            event.value
        )


@dataclass(frozen=True, slots=True)
class IdentifiedFilter:
    """``(min <= a_d <= max) AND (location(d) = p_d)`` — pinned to sensor d."""

    sensor_id: str
    condition: SimpleFilter

    @property
    def attribute(self) -> str:
        return self.condition.attribute

    @property
    def interval(self) -> Interval:
        return self.condition.interval

    def matches_event(self, event: SimpleEvent) -> bool:
        return event.sensor_id == self.sensor_id and self.condition.matches_event(
            event
        )


@dataclass(frozen=True, slots=True)
class AbstractFilter:
    """One clause ``f_a AND p_d in L`` of an abstract filter ``F_{A,L}``."""

    condition: SimpleFilter
    region: Region

    @property
    def attribute(self) -> str:
        return self.condition.attribute

    def matches_event(self, event: SimpleEvent) -> bool:
        return self.condition.matches_event(event) and self.region.contains(
            event.location
        )
