"""Closed-interval algebra used by filters, subscriptions and subsumption.

The paper expresses simple filters as range conditions ``min <= a <= max``
(Section IV-A).  Intervals are the one-dimensional building block of every
coverage and subsumption decision in the system, so this module keeps the
algebra small, explicit and total: every operation is defined for empty
intervals as well.

All intervals are treated as *closed* ``[lo, hi]``.  The paper's examples
use strict bounds (``50 < a < 80``); for real-valued sensor domains the
distinction has measure zero and no effect on any traffic metric, so we
standardise on closed bounds (documented deviation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed real interval ``[lo, hi]``.

    An interval with ``lo > hi`` is the canonical *empty* interval; use
    :data:`EMPTY_INTERVAL` rather than constructing new empty instances so
    equality checks stay trivial.
    """

    lo: float
    hi: float

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the interval contains no points."""
        return self.lo > self.hi

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the closed interval."""
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` is entirely inside this interval.

        The empty interval is contained in everything; nothing non-empty
        is contained in the empty interval.
        """
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one point."""
        if self.is_empty or other.is_empty:
            return False
        return self.lo <= other.hi and other.lo <= self.hi

    # ------------------------------------------------------------------
    # constructive operations
    # ------------------------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        """The (possibly empty) intersection of the two intervals."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return EMPTY_INTERVAL
        return Interval(lo, hi)

    def clamp(self, domain: "Interval") -> "Interval":
        """Alias of :meth:`intersect`, named for clipping to a domain."""
        return self.intersect(domain)

    def widen(self, amount: float) -> "Interval":
        """Grow the interval by ``amount`` on each side (coarsening).

        Used by the paper's Section VI-F mitigation: enlarging filter
        ranges to recover recall at the price of extra traffic.
        """
        if self.is_empty:
            return self
        if amount < 0:
            raise ValueError("widen() takes a non-negative amount")
        return Interval(self.lo - amount, self.hi + amount)

    # ------------------------------------------------------------------
    # measure
    # ------------------------------------------------------------------
    @property
    def length(self) -> float:
        """Lebesgue measure of the interval (0 for empty and points)."""
        if self.is_empty:
            return 0.0
        return self.hi - self.lo


EMPTY_INTERVAL = Interval(1.0, 0.0)
FULL_INTERVAL = Interval(-math.inf, math.inf)


def union_covers(cover: Iterable[Interval], target: Interval) -> bool:
    """Exact 1-D test: does the union of ``cover`` contain ``target``?

    Sweep the target from left to right, extending the covered frontier
    with every interval that reaches it.  Runs in ``O(n log n)``.
    FSF's exact filtering asks it once per slot; it is also the ground
    truth the probabilistic set filter is tested against.
    """
    if target.is_empty:
        return True
    spans = sorted(
        (iv for iv in cover if iv.overlaps(target)), key=lambda iv: (iv.lo, -iv.hi)
    )
    if not spans:
        return False
    frontier = target.lo
    for iv in spans:
        if iv.lo > frontier:
            return False
        frontier = max(frontier, iv.hi)
        if frontier >= target.hi:
            return True
    return frontier >= target.hi
