"""Registry of the five evaluated approaches + Table II rendering."""

from __future__ import annotations

from typing import Mapping

from ..baselines.centralized import centralized_approach
from ..baselines.multijoin import multijoin_approach
from ..baselines.naive import naive_approach
from ..baselines.operator_placement import operator_placement_approach
from ..core.filter_split_forward import FSFConfig, filter_split_forward_approach
from .base import Approach

TABLE_II_COLUMNS = (
    "Approach",
    "Subscription Filtering",
    "Subscription Splitting",
    "Event propagation",
)


def all_approaches(
    fsf_config: FSFConfig | None = None,
) -> Mapping[str, Approach]:
    """The five systems, keyed as the experiment harness refers to them."""
    approaches = [
        centralized_approach(),
        naive_approach(),
        operator_placement_approach(),
        multijoin_approach(),
        filter_split_forward_approach(fsf_config),
    ]
    return {a.key: a for a in approaches}


def distributed_approaches(
    fsf_config: FSFConfig | None = None,
) -> Mapping[str, Approach]:
    """The four distributed systems (Figs 4-5 and 8-11 omit centralized)."""
    return {
        key: approach
        for key, approach in all_approaches(fsf_config).items()
        if key != "centralized"
    }


def table_ii() -> list[tuple[str, str, str, str]]:
    """Table II of the paper, generated from the approach metadata."""
    return [a.table_row() for a in all_approaches().values()]


def render_table_ii() -> str:
    """Human-readable Table II (what the bench harness prints)."""
    rows = [TABLE_II_COLUMNS, *table_ii()]
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
