"""Command-line entry point: regenerate any table or figure.

Examples::

    repro-experiments --list
    repro-experiments table1
    repro-experiments table2
    repro-experiments fig3
    repro-experiments fig7 --scale 0.2
    repro-experiments fig15 --scale smoke --workers 2
    repro-experiments all --scale nightly --workers 4
    repro-experiments all --family faults --family placement
    repro-experiments experiments-md --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Callable, Sequence

from ..workload.scenarios import SCALE_PRESETS, default_scale, parse_scale
from . import figures
from .experiments_md import build_experiments_md
from .runner import WORKERS_ENV_VAR
from .tables import render_table_2, render_table_i, run_fig3_walkthrough


Target = Callable[[argparse.Namespace], str]


def _figure(fig_id: str, args: argparse.Namespace) -> str:
    return figures.figure(fig_id, args.scale).render()


def _targets() -> dict[str, Target]:
    """Every target but ``all``, in the order ``all`` prints them (it
    skips ``experiments-md`` and the figures no ``--family`` selects)."""
    targets: dict[str, Target] = {
        "table1": lambda args: render_table_i(),
        "table2": lambda args: render_table_2(),
        "fig3": lambda args: run_fig3_walkthrough().render(),
    }
    for fig_id in figures.FIGURES:
        targets[f"fig{fig_id}"] = partial(_figure, fig_id)
    targets["experiments-md"] = lambda args: build_experiments_md(
        args.scale, families=args.family
    )
    return targets


def main(argv: Sequence[str] | None = None) -> int:
    targets = _targets()
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the ICDE 2010 paper "
        "'Continuous Query Evaluation over Distributed Sensor Networks'.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        # Derived from figures.FIGURES, so a figure in the table can
        # never be missing from the CLI (a regression test pins it).
        choices=[*targets, "all"],
        help="what to regenerate (figs 13-20 go beyond the paper, in "
        "the families --list names); omit with --list to browse what "
        "exists",
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
        choices=[*figures.family_names(), figures.ALL_FAMILIES],
        metavar="NAME",
        help="include a beyond-paper figure family in the 'all' and "
        "'experiments-md' targets; repeatable; one of "
        f"{', '.join(figures.family_names())}, or "
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
        return _run(args, targets)
    finally:
        if saved is None:
            os.environ.pop(WORKERS_ENV_VAR, None)
        else:
            os.environ[WORKERS_ENV_VAR] = saved


def _run(args: argparse.Namespace, targets: dict[str, Target]) -> int:
    if args.target == "all":
        shown = {"table1", "table2", "fig3"}
        shown.update(f"fig{i}" for i in figures.selected_figures(args.family))
        out = [run(args) for name, run in targets.items() if name in shown]
    else:
        out = [targets[args.target](args)]
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
