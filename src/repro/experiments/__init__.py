"""Experiment harness: the series runner, figures/tables, CLI."""

from .figures import ALL_FIGURES, FigureResult, clear_cache, scenario_series
from .runner import (
    REPLAY_START,
    WORKERS_ENV_VAR,
    PointTask,
    RunResult,
    SeriesResult,
    default_workers,
    run_program,
    run_series,
)
from .tables import (
    Fig3Walkthrough,
    fig3_deployment,
    render_table_2,
    render_table_i,
    run_fig3_walkthrough,
    table_i_subscriptions,
)

__all__ = [
    "ALL_FIGURES",
    "Fig3Walkthrough",
    "FigureResult",
    "PointTask",
    "REPLAY_START",
    "RunResult",
    "SeriesResult",
    "WORKERS_ENV_VAR",
    "clear_cache",
    "default_workers",
    "fig3_deployment",
    "render_table_2",
    "render_table_i",
    "run_fig3_walkthrough",
    "run_program",
    "run_series",
    "scenario_series",
    "table_i_subscriptions",
]
