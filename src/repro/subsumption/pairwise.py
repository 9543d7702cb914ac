"""Pair-wise covering detection.

The operator-placement and multi-join baselines (Sections III-A/B)
filter subscriptions by *pair-wise* coverage: a new operator is redundant
iff one single stored operator covers it entirely.  This is the
"well established publish/subscribe technique that achieves pairwise
subscription reduction" the paper builds on, and the reference point the
set filter improves upon (Figs 4, 6, 8, 10).
"""

from __future__ import annotations

from typing import Iterable, Sequence

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


def reduce_pairwise(
    operators: Sequence[CorrelationOperator],
) -> list[CorrelationOperator]:
    """Arrival-order pair-wise reduction of a whole batch.

    Keeps an operator iff no *earlier kept* operator covers it —
    mirroring the online behaviour of the baselines, where traffic
    already spent on earlier subscriptions is not reclaimed.
    """
    kept: list[CorrelationOperator] = []
    for operator in operators:
        if find_cover(operator, kept) is None:
            kept.append(operator)
    return kept
