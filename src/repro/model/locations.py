"""Locations and regions — the spatial half of the paper's data model.

Section IV-A: every sensor has a location ``p_d`` from a location domain
(2-D or 3-D space, or a hierarchy).  Abstract subscriptions constrain
sensors to a region ``L`` and correlate events whose pairwise distance is
below the spatial correlation distance ``delta_l``.

We implement the 2-D Euclidean domain the experiments use, with
rectangular and circular regions plus finite unions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .intervals import Interval


@dataclass(frozen=True, slots=True)
class Location:
    """A point in the 2-D Euclidean location domain."""

    x: float
    y: float

    def distance_to(self, other: "Location") -> float:
        """Euclidean distance between two locations."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x:g}, {self.y:g})"


def spatial_span(locations: Sequence[Location]) -> float:
    """Largest pairwise distance among ``locations``.

    This is the quantity compared against ``delta_l`` when matching a
    complex event against an abstract subscription
    (``|max(p_i - p_j)| < delta_l`` in the paper).  Empty and singleton
    inputs span zero.
    """
    n = len(locations)
    if n < 2:
        return 0.0
    return max(
        locations[i].distance_to(locations[j])
        for i in range(n)
        for j in range(i + 1, n)
    )


class Region:
    """Abstract region of the location domain (``L`` in the paper).

    Concrete regions only need containment; the topology builder and the
    workload generator construct them, the matching code queries them.
    """

    def contains(self, location: Location) -> bool:
        """Whether ``location`` lies in the region."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class RectRegion(Region):
    """Axis-aligned rectangle — the workhorse region for experiments."""

    x_range: Interval
    y_range: Interval

    def contains(self, location: Location) -> bool:
        return self.x_range.contains(location.x) and self.y_range.contains(location.y)


@dataclass(frozen=True, slots=True)
class CircleRegion(Region):
    """Disc region — natural for "sensors within r of a point" queries."""

    center: Location
    radius: float

    def contains(self, location: Location) -> bool:
        return self.center.distance_to(location) <= self.radius


@dataclass(frozen=True, slots=True)
class UnionRegion(Region):
    """Finite union of regions (the paper's "union of such regions")."""

    parts: tuple[Region, ...]

    def contains(self, location: Location) -> bool:
        return any(part.contains(location) for part in self.parts)


@dataclass(frozen=True, slots=True)
class EverywhereRegion(Region):
    """The whole location domain; used when a query has no spatial bound."""

    def contains(self, location: Location) -> bool:
        return True


EVERYWHERE = EverywhereRegion()


def bounding_rect(locations: Iterable[Location], margin: float = 0.0) -> RectRegion:
    """Smallest axis-aligned rectangle containing ``locations``.

    Convenience for building abstract-subscription regions around a
    group of stations.
    """
    pts = list(locations)
    if not pts:
        raise ValueError("bounding_rect needs at least one location")
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return RectRegion(
        Interval(min(xs) - margin, max(xs) + margin),
        Interval(min(ys) - margin, max(ys) + margin),
    )
