"""Metrics: traffic loads, the offline oracle, recall and reports."""

from .fences import Fences
from .oracle import (
    ORACLE_METHODS,
    EventIndex,
    SubscriptionTruth,
    compute_truth,
    operator_truth,
    oracle_operator,
)
from .recall import RecallReport, measure_recall
from .report import (
    improvement_over,
    render_series_table,
    render_traffic_accounting,
    summarize_improvement,
    traffic_accounting,
)

__all__ = [
    "EventIndex",
    "Fences",
    "ORACLE_METHODS",
    "RecallReport",
    "SubscriptionTruth",
    "compute_truth",
    "improvement_over",
    "measure_recall",
    "operator_truth",
    "oracle_operator",
    "render_series_table",
    "render_traffic_accounting",
    "summarize_improvement",
    "traffic_accounting",
]
