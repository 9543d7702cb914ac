"""Generator for EXPERIMENTS.md — paper-vs-measured for every artefact."""

from __future__ import annotations

from typing import Iterable

from ..workload.scenarios import default_scale
from . import figures
from .tables import render_table_2, render_table_i, run_fig3_walkthrough


def build_experiments_md(
    scale: float | None = None,
    families: Iterable[str] = (),
) -> str:
    """Run everything and render the paper-vs-measured record.

    ``families`` appends the named beyond-paper families' figures
    (``figures.family_names()``, or ``"beyond"`` for all of them) and
    a note on the retired figures 21-22.  Empty by default to keep the
    paper-facing record paper-shaped.
    """
    eff_scale = default_scale() if scale is None else scale
    parts: list[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"All figures regenerated at workload scale **{eff_scale}** "
        "(node counts match the paper; subscription counts and replay "
        "length are scaled — shapes, orderings and relative margins are "
        "the reproduction target, absolute counts are not, since the "
        "substrate is a simulator rather than the authors' Xen cluster).",
        "",
        "Regenerate any artefact with `repro-experiments <target> "
        "[--scale S]`.",
        "",
        "## Table I / Figure 3",
        "",
        "Paper: s3 is subsumed by {s1, s2} jointly, undetectable by "
        "classic same-attribute-set filtering; after the filter-split-"
        "forward phases nothing of s3 travels toward the sensors.",
        "",
        "```",
        render_table_i(),
        "",
        run_fig3_walkthrough().render(),
        "```",
        "",
        "Measured: s3 is stored covered at the injection node and "
        "forwards 0 operator units (the paper's walkthrough filters it "
        "one hop later — our per-slot union check fires as soon as the "
        "covering operators share a store, a strictly earlier detection).",
        "",
        "## Table II",
        "",
        "```",
        render_table_2(),
        "```",
        "",
    ]
    for fig_id in figures.selected_figures(families):
        parts += [
            f"## Figure {fig_id}",
            "",
            f"Paper: {figures.FIGURES[fig_id].claim}",
            "",
            "```",
            figures.figure(fig_id, eff_scale).render(),
            "```",
            "",
        ]
    if families:
        parts += [
            "## Figures 21-22 (retired)",
            "",
            "Figures 21-22 plotted an approximate answer lane (q-digest "
            "range counts pushed along the advertisement tree) against the "
            "exact frontier.  They were retired with the lane: the paper "
            "compares exact answers only, the lane refused lossy links, "
            "reliability and compiled placement, and it cost a branch on "
            "every node's message path.",
            "",
        ]
    parts += [
        "## Headline margins (measured)",
        "",
        "| claim | paper | measured |",
        "|---|---|---|",
    ]
    for fig_id, spec in figures.FIGURES.items():
        if spec.headline is not None and spec.metric is not None:
            label, band = spec.headline
            series = figures.figure(fig_id, eff_scale).series
            measured = figures.improvement(series, spec.metric)
            parts.append(f"| {label} | {band} | {measured} |")
    parts += [
        "",
        "### Known deviations",
        "",
        "* The centralized scheme's event curve is flat and highest at "
        "low subscription counts, but our match-dense synthetic workload "
        "lets the naive approach overtake it within the measured range, "
        "whereas the paper's replay kept centralized on top throughout — "
        "the fixed all-events-to-centre component and the 'largely "
        "outbalances the subscription gains' conclusion reproduce either "
        "way.",
        "* Section VI-F's error dial is not reproduced.  The paper's "
        "checker [15] answers set subsumption with a configurable "
        "probability of error; our filter asks, per slot, whether the "
        "stored ranges' union holds the new range, which `union_covers` "
        "decides exactly in O(k log k), so there is no error to trade.  "
        "FSF's recall loss comes from that per-slot product being wider "
        "than the union of the stored operators' boxes (ROADMAP item "
        "19); coarsening is the one knob left on the traffic/recall "
        "axis.",
        "* Our set filter detects joint coverage at the first node where "
        "the covering operators share a store (the paper's pipeline "
        "detects it after splitting, a hop or two later), so FSF "
        "subscription savings appear slightly earlier along the path.",
        "* At strongly scaled-down subscription counts the naive and "
        "multi-join event curves can swap in the sparsest setting "
        "(Fig. 11's 20 groups): naive needs subscription overlap to pay "
        "its duplication penalty, multi-join pays its raw-stream cost "
        "up front.  The FSF margins and every other ordering are "
        "scale-stable.",
        "* Subscription-load margins grow with subscription density "
        "(subsumption needs overlap to exist): at the default scale the "
        "FSF-vs-pairwise gap is a few percent and still growing at the "
        "last point.  Fig. 4's FSF-vs-operator-placement improvement "
        "(seed 0) measures 0.0% .. 10.3% (mean 4.9%) at scale 0.2 and "
        "4.1% .. 28.6% (mean 19.4%) at `full`, the paper's 100-1000 "
        "axis, against the paper's ~18% average.  Run `repro-experiments "
        "fig4 --scale full` to reproduce at paper scale.",
        "",
    ]
    return "\n".join(parts)
