"""User subscriptions (Section IV-A).

Two flavours:

* **identified** ``S_id = (F_D, delta_t)`` — ranges over explicitly named
  sensors; a complex match needs one event per sensor in ``D``;
* **abstract** ``S_ab = (F_{A,L}, delta_t, delta_l)`` — ranges over
  attribute *types* bounded to a region ``L``; a complex match needs one
  event per attribute type, produced by sensors inside ``L`` whose
  pairwise distance stays below ``delta_l``.

``delta_t`` is the temporal correlation distance: all member timestamps
must be within ``delta_t`` of the maximum member timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .advertisements import Advertisement, AdvertisementTable
from .events import SimpleEvent
from .filters import AbstractFilter, IdentifiedFilter, SimpleFilter
from .intervals import Interval
from .locations import Region

UNBOUNDED: float = math.inf
"""Spatial correlation distance meaning "independent of proximity"."""

PAPER_DELTA_T: float = 5.0
"""The temporal correlation distance of the paper's experiments (5 s
throughout): the default of a query that never names one, and the
window a network's event validity starts from."""


def _check_delta_t(delta_t: float) -> None:
    if not delta_t > 0:
        raise ValueError("delta_t must be positive (events never share timestamps)")


@dataclass(frozen=True)
class IdentifiedSubscription:
    """``(F_D, delta_t)`` — a complex filter with identification.

    ``filters`` holds exactly one identified filter per sensor of ``D``;
    the constructor sorts them so equal subscriptions compare equal.
    """

    sub_id: str
    filters: tuple[IdentifiedFilter, ...]
    delta_t: float

    def __init__(
        self,
        sub_id: str,
        filters: Iterable[IdentifiedFilter],
        delta_t: float,
    ) -> None:
        ordered = tuple(sorted(filters, key=lambda f: f.sensor_id))
        if not ordered:
            raise ValueError("a subscription needs at least one filter")
        seen = {f.sensor_id for f in ordered}
        if len(seen) != len(ordered):
            raise ValueError("duplicate sensor in identified subscription")
        _check_delta_t(delta_t)
        object.__setattr__(self, "sub_id", sub_id)
        object.__setattr__(self, "filters", ordered)
        object.__setattr__(self, "delta_t", delta_t)

    # ------------------------------------------------------------------
    @property
    def sensor_ids(self) -> frozenset[str]:
        """The sensor set ``D``."""
        return frozenset(f.sensor_id for f in self.filters)

    def matches_simple(self, event: SimpleEvent) -> bool:
        """Paper's simple-event match: ``d in D`` and ``f_d(v)`` true."""
        return any(f.matches_event(event) for f in self.filters)

    @classmethod
    def from_ranges(
        cls,
        sub_id: str,
        ranges: Mapping[str, tuple[str, float, float]],
        delta_t: float,
    ) -> "IdentifiedSubscription":
        """Build from ``{sensor_id: (attribute, lo, hi)}`` — test-friendly."""
        return cls(
            sub_id,
            (
                IdentifiedFilter(sensor, SimpleFilter(attr, Interval(lo, hi)))
                for sensor, (attr, lo, hi) in ranges.items()
            ),
            delta_t,
        )


@dataclass(frozen=True)
class AbstractSubscription:
    """``(F_{A,L}, delta_t, delta_l)`` — region-scoped, attribute-typed.

    ``clauses`` holds one abstract filter per attribute type of ``A``,
    all sharing the region ``L`` (enforced).
    """

    sub_id: str
    clauses: tuple[AbstractFilter, ...]
    delta_t: float
    delta_l: float

    def __init__(
        self,
        sub_id: str,
        clauses: Iterable[AbstractFilter],
        delta_t: float,
        delta_l: float = UNBOUNDED,
    ) -> None:
        ordered = tuple(sorted(clauses, key=lambda c: c.attribute))
        if not ordered:
            raise ValueError("a subscription needs at least one clause")
        attrs = {c.attribute for c in ordered}
        if len(attrs) != len(ordered):
            raise ValueError("duplicate attribute in abstract subscription")
        regions = {id(c.region) for c in ordered}
        if len({repr(c.region) for c in ordered}) > 1 and len(regions) > 1:
            raise ValueError("all clauses of F_{A,L} must share the region L")
        _check_delta_t(delta_t)
        if not delta_l > 0:
            raise ValueError("delta_l must be positive (or math.inf)")
        object.__setattr__(self, "sub_id", sub_id)
        object.__setattr__(self, "clauses", ordered)
        object.__setattr__(self, "delta_t", delta_t)
        object.__setattr__(self, "delta_l", delta_l)

    # ------------------------------------------------------------------
    @property
    def attributes(self) -> frozenset[str]:
        """The attribute set ``A``."""
        return frozenset(c.attribute for c in self.clauses)

    def matches_simple(self, event: SimpleEvent) -> bool:
        """``a_d in A``, ``p_d in L`` and ``f_{a_d}(v)`` true."""
        return any(c.matches_event(event) for c in self.clauses)

    def resolve(
        self, advertisements: AdvertisementTable
    ) -> dict[str, list[Advertisement]]:
        """Concrete sensors per attribute, from advertised sources.

        Returns ``{attribute: [advertisements in L]}``; an empty list for
        some attribute means the subscription currently has absent
        sources and must not be forwarded (Algorithm 3, line 3).
        """
        return {
            clause.attribute: advertisements.sensors_matching(
                clause.attribute, clause.region
            )
            for clause in self.clauses
        }

    @classmethod
    def from_ranges(
        cls,
        sub_id: str,
        ranges: Mapping[str, tuple[float, float]],
        region: Region,
        delta_t: float,
        delta_l: float = UNBOUNDED,
    ) -> "AbstractSubscription":
        """Build from ``{attribute: (lo, hi)}`` over one region."""
        return cls(
            sub_id,
            (
                AbstractFilter(SimpleFilter(attr, Interval(lo, hi)), region)
                for attr, (lo, hi) in ranges.items()
            ),
            delta_t,
            delta_l,
        )


Subscription = IdentifiedSubscription | AbstractSubscription
"""Union type accepted wherever either flavour works."""
