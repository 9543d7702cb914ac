"""Subscription subsumption: pair-wise covering (Section III) and the
FSF set filter's per-slot product-of-unions question (Section V-B)."""

from .pairwise import find_cover, pairwise_covered
from .setfilter import (
    ProbabilisticSetFilter,
    SetFilterDecision,
    required_samples,
)

__all__ = [
    "ProbabilisticSetFilter",
    "SetFilterDecision",
    "find_cover",
    "pairwise_covered",
    "required_samples",
]
