"""Command-line entry point: regenerate any table or figure.

Examples::

    repro-experiments --list
    repro-experiments table1
    repro-experiments table2
    repro-experiments fig3
    repro-experiments fig7 --scale 0.2
    repro-experiments fig15 --scale smoke --workers 2
    repro-experiments all --scale nightly --workers 4
    repro-experiments all --family faults --family sketches
    repro-experiments experiments-md --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from ..workload.scenarios import SCALE_PRESETS, default_scale, parse_scale
from . import figures
from .experiments_md import build_experiments_md
from .runner import WORKERS_ENV_VAR
from .tables import render_table_2, render_table_i, run_fig3_walkthrough


def _figure_command(fig_id: str, scale: float | None) -> str:
    return figures.ALL_FIGURES[fig_id](scale).render()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the ICDE 2010 paper "
        "'Continuous Query Evaluation over Distributed Sensor Networks'.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        # Derived from the figure registry, so a figure registered in
        # ALL_FIGURES can never be missing from the CLI (the catalog
        # drift a regression test now pins).
        choices=[
            "table1",
            "table2",
            "fig3",
            *(f"fig{i}" for i in sorted(figures.ALL_FIGURES, key=int)),
            "all",
            "experiments-md",
        ],
        help="what to regenerate (figs 13-14 are the churn family, "
        "figs 15-16 the query admit/retire family, figs 17-18 the "
        "unreliable-transport family, figs 19-20 the placement "
        "family and figs 21-22 the approximate-answer family, all "
        "beyond the paper); omit with --list to browse what exists",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_catalog",
        help="enumerate scenario families and figures with their scale "
        "presets, then exit (no experiment runs)",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=[],
        choices=[*figures.FIGURE_FAMILIES, figures.ALL_FAMILIES],
        metavar="NAME",
        help="include a beyond-paper figure family in the 'all' and "
        "'experiments-md' targets; repeatable; one of "
        f"{', '.join(figures.FIGURE_FAMILIES)}, or "
        f"{figures.ALL_FAMILIES} for all of them (--list names each "
        "family's figures; their dedicated figN targets always run)",
    )
    parser.add_argument(
        "--scale",
        type=parse_scale,
        default=None,
        metavar="SCALE",
        help="workload scale: a float in (0, 1] or a preset "
        f"({', '.join(sorted(SCALE_PRESETS))}); default: REPRO_SCALE env "
        "or 0.1; 1.0 = the paper's subscription counts",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run each scenario's points over N worker processes "
        "(default: REPRO_WORKERS env or 1; results are identical under "
        "any N)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the result to a file instead of stdout",
    )
    args = parser.parse_args(argv)
    if args.list_catalog:
        print(figures.render_catalog())
        return 0
    if args.target is None:
        parser.error("a target is required (or pass --list to browse)")

    # The worker count is environment-driven all the way down (so the
    # figure harness sees it too); the flag sets it for the duration of
    # this invocation and restores on exit, so embedding callers (tests,
    # notebooks) see no lingering state.
    saved = os.environ.get(WORKERS_ENV_VAR)
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        os.environ[WORKERS_ENV_VAR] = str(args.workers)
    try:
        return _run(args)
    finally:
        if saved is None:
            os.environ.pop(WORKERS_ENV_VAR, None)
        else:
            os.environ[WORKERS_ENV_VAR] = saved


def _run(args: argparse.Namespace) -> int:
    out: list[str] = []
    if args.target == "table1":
        out.append(render_table_i())
    elif args.target == "table2":
        out.append(render_table_2())
    elif args.target == "fig3":
        out.append(run_fig3_walkthrough().render())
    elif args.target.startswith("fig"):
        out.append(_figure_command(args.target[3:], args.scale))
    elif args.target == "experiments-md":
        out.append(build_experiments_md(args.scale, families=args.family))
    else:  # all
        out.append(render_table_i())
        out.append(render_table_2())
        out.append(run_fig3_walkthrough().render())
        for fig_id in figures.selected_figures(args.family):
            out.append(_figure_command(fig_id, args.scale))
    text = "\n\n".join(out) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} (scale={args.scale or default_scale()})")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
