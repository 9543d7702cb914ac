"""Subscription subsumption: pair-wise, exact and probabilistic set
filtering (Sections III and V-B)."""

from .exact import Box, ExactCoverTooLarge, boxes_cover, uncovered_probe
from .pairwise import find_cover, pairwise_covered
from .setfilter import (
    ProbabilisticSetFilter,
    SetFilterDecision,
    required_samples,
)

__all__ = [
    "Box",
    "ExactCoverTooLarge",
    "ProbabilisticSetFilter",
    "SetFilterDecision",
    "boxes_cover",
    "find_cover",
    "pairwise_covered",
    "required_samples",
    "uncovered_probe",
]
