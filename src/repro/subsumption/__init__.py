"""Subscription subsumption: pair-wise covering (Section III).  FSF's
set filter asks its per-slot question with
:func:`repro.model.intervals.union_covers`."""

from .pairwise import find_cover, pairwise_covered

__all__ = [
    "find_cover",
    "pairwise_covered",
]
