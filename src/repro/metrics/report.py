"""Textual rendering of experiment results — the "rows/series the paper
reports" in plain monospace, suitable for bench output and
EXPERIMENTS.md."""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def render_series_table(
    title: str,
    x_label: str,
    xs: Sequence[int],
    series: Mapping[str, Sequence[float]],
) -> str:
    """One figure as a table: rows = approaches, columns = x values."""
    header = [x_label] + [str(x) for x in xs]
    rows: list[list[str]] = [header]
    for name, values in series.items():
        rows.append([name] + [f"{v:.0f}" for v in values])
    widths = [
        max(len(rows[r][c]) for r in range(len(rows))) for c in range(len(header))
    ]
    lines = [title, "=" * len(title)]
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(w) if j else cell.ljust(w)
                      for j, (cell, w) in enumerate(zip(row, widths)))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def traffic_accounting(results: Sequence[Any]) -> dict[str, int]:
    """Total data units per kind over one approach's series of results.

    Works on any sequence of :class:`~repro.experiments.runner.RunResult`
    (duck-typed, so the metrics layer stays import-light).  The
    advertisement total deliberately **includes** churn-time retraction
    and re-flood traffic (everything after the setup flood) on top of
    the setup flood: under churn the advertisement channel is live for
    the whole run, and accounting that only looked at setup would
    silently undercount it.
    """
    subscription = sum(r.after_setup.subscription_units for r in results)
    event = sum(r.final.event_units for r in results)
    advertisement = sum(r.final.advertisement_units for r in results)
    setup_ads = sum(r.after_advertisements.advertisement_units for r in results)
    return {
        "subscription_units": subscription,
        "event_units": event,
        "advertisement_units": advertisement,
        "reflood_units": advertisement - setup_ads,
        "total_units": subscription + event + advertisement,
    }


def render_traffic_accounting(
    title: str, per_approach: Mapping[str, Sequence[object]]
) -> str:
    """Per-approach unit totals (one row each), re-flood included."""
    kinds = ("subscription", "event", "advertisement", "reflood", "total")
    header = ["approach"] + [f"{kind} units" for kind in kinds]
    rows: list[list[str]] = [header]
    for name, results in per_approach.items():
        totals = traffic_accounting(results)
        rows.append([name] + [str(totals[f"{kind}_units"]) for kind in kinds])
    widths = [
        max(len(row[c]) for row in rows) for c in range(len(header))
    ]
    lines = [title, "=" * len(title)]
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(
                cell.rjust(w) if j else cell.ljust(w)
                for j, (cell, w) in enumerate(zip(row, widths))
            )
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def improvement_over(
    ours: Sequence[float], theirs: Sequence[float]
) -> list[float]:
    """Per-point relative improvement of `ours` vs `theirs` (positive =
    ours lower/better), as percentages."""
    out = []
    for a, b in zip(ours, theirs):
        out.append(0.0 if b == 0 else (b - a) / b * 100.0)
    return out


def summarize_improvement(ours: Sequence[float], theirs: Sequence[float]) -> str:
    imps = improvement_over(ours, theirs)
    if not imps:
        return "n/a"
    return f"{min(imps):.1f}% .. {max(imps):.1f}% (mean {sum(imps)/len(imps):.1f}%)"
