"""Pair-wise covering detection.

The operator-placement and multi-join baselines (Sections III-A/B)
filter subscriptions by *pair-wise* coverage: a new operator is redundant
iff one single stored operator covers it entirely.  This is the
"well established publish/subscribe technique that achieves pairwise
subscription reduction" the paper builds on, and the reference point the
set filter improves upon (Figs 4, 6, 8, 10).
"""

from __future__ import annotations

from typing import Iterable

from ..model.operators import CorrelationOperator


def find_cover(
    operator: CorrelationOperator,
    candidates: Iterable[CorrelationOperator],
) -> CorrelationOperator | None:
    """First stored operator that single-handedly covers ``operator``.

    Candidates are scanned in iteration order (the arrival order the
    paper uses — earlier subscriptions are not retroactively filtered).
    """
    for candidate in candidates:
        if candidate.covers(operator):
            return candidate
    return None


def pairwise_covered(operator: CorrelationOperator, store, before=None) -> bool:
    """Whether one uncovered operator of ``store`` covers ``operator``.

    The coverage rule of both pair-wise baselines, at arrival
    (``before=None``: everything stored) and at cancellation repair
    (``before`` = the record's rank: what its arrival saw).  ``store``
    is a node's per-origin subscription store; a cover has the same
    signature, so its first slot is filed with the operator's.
    """
    first = operator.slots[0]
    signature = operator.signature
    candidates = (
        record.operator
        for record, slot in store.candidates(first, before)
        if slot.slot_id == first.slot_id and record.operator.signature == signature
    )
    return find_cover(operator, candidates) is not None
