"""Incremental correlation matching — per-operator state instead of
recompute-on-arrival (see :mod:`repro.matching.engine`).

The reference semantics live in :mod:`repro.model.matching` and remain
the machine-checked oracle; this package is the performance engine the
node event path runs on.
"""

from .engine import HitMap, MatchingEngine, OperatorMatcher
from .reference import ReferenceEngine
from .timeline import Timeline, TimelineView

__all__ = [
    "HitMap",
    "MatchingEngine",
    "OperatorMatcher",
    "ReferenceEngine",
    "Timeline",
    "TimelineView",
]
