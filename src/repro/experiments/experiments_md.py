"""Generator for EXPERIMENTS.md — paper-vs-measured for every artefact."""

from __future__ import annotations

from typing import Iterable

from ..metrics.report import summarize_improvement
from ..workload.scenarios import default_scale
from . import figures
from .tables import render_table_2, render_table_i, run_fig3_walkthrough

PAPER_CLAIMS = {
    "4": "Naive worst; OP and MJ reduce via pair-wise coverage; FSF best "
    "(~18% fewer forwarded queries on average than OP/MJ).",
    "5": "Log-scale event load: naive/OP highest, FSF beats MJ by 10-30%.",
    "6": "Centralized has by far the lowest subscription load; FSF beats "
    "the distributed state of the art by 4.5-17.4%.",
    "7": "Centralized event traffic is the largest; FSF beats MJ by "
    "48-55.9%.",
    "8": "Same ordering as medium scale; totals grow with network size.",
    "9": "FSF beats MJ by 56-62% (network size amplifies event savings).",
    "10": "Less set-reduction opportunity with 20 groups (smaller "
    "candidate sets).",
    "11": "FSF beats MJ by 54-68% regardless of candidate-set size.",
    "12": "FSF recall 100% in some cases, generally around 98%, worst "
    "~93% (small scale / few subscriptions).",
    # Figures 13-14 go beyond the paper: the dynamic churn-and-burst
    # family (multi-day drifting replay, sensor leave/rejoin).
    "13": "Beyond the paper — event load under a 2-day bursty replay "
    "with 25% sensor churn; advertisement accounting includes the "
    "retraction/re-flood traffic the static figures never exercise.",
    "14": "Beyond the paper — recall under churn: deterministic "
    "approaches hold 100% against the churn-aware oracle (the trigger "
    "outruns the retraction flood); FSF keeps its cover-rule margin.",
    "15": "Beyond the paper — steady-state recall while queries keep "
    "arriving (Poisson) and retiring (exponential holds), each fenced "
    "to its scheduled lifetime in the oracle; admission-lag and "
    "retirement-edge races bound the loss.",
    "16": "Beyond the paper — the traffic bill of an ongoing query "
    "service, split registration / teardown (UnsubscribeMessage units, "
    "metered separately) / events / results, per approach, vs. the "
    "admit rate.",
    "17": "Beyond the paper — recall vs per-link loss with the "
    "ack/retransmit + soft-state-refresh layer on and off: protecting "
    "control traffic alone recovers most of the recall lost to broken "
    "setup state; the residual decay is the unprotected event traffic's "
    "multi-hop loss physics.",
    "18": "Beyond the paper — the reliability layer's bill: refresh "
    "units are a loss-independent floor (periodic soft-state floods), "
    "retransmit units grow with the drop rate.",
    "19": "Beyond the paper — total traffic on a tiered architecture "
    "graph with a skewed cross-group workload: the placement compiler "
    "delays the operator split past the natural divergence node, "
    "gating the wide group's partial-match flood at its head; the "
    "compiled lane undercuts the paper heuristic per approach.",
    "20": "Beyond the paper — the safety half of fig 19: with exact "
    "FSF filtering every lane holds 100% recall, so the compiled "
    "placement's traffic savings are free of result loss.",
    "21": "Beyond the paper — accuracy-vs-traffic: broker-resident "
    "q-digest lanes answer single-slot range queries from merged "
    "summaries pushed at round intervals, spending strictly fewer "
    "total units than every exact approach at the largest point.",
    "22": "Beyond the paper — the accuracy half of fig 21: certified "
    "count accuracy per digest resolution, with every observed rank "
    "error inside the deterministic q-digest bound (zero violations).",
}


def build_experiments_md(
    scale: float | None = None,
    families: Iterable[str] = (),
) -> str:
    """Run everything and render the paper-vs-measured record.

    ``families`` appends the named beyond-paper families' figures
    (keys of ``figures.FIGURE_FAMILIES``, or ``"beyond"`` for all of
    them).  Empty by default to keep the paper-facing record
    paper-shaped.
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
        result = figures.ALL_FIGURES[fig_id](eff_scale)
        parts += [
            f"## Figure {fig_id}",
            "",
            f"Paper: {PAPER_CLAIMS[fig_id]}",
            "",
            "```",
            result.render(),
            "```",
            "",
        ]
    # Cross-figure summary of the headline margins.
    small = figures.scenario_series(figures.SMALL, eff_scale)
    medium = figures.scenario_series(figures.MEDIUM, eff_scale)
    parts += [
        "## Headline margins (measured)",
        "",
        "| claim | paper | measured |",
        "|---|---|---|",
        "| FSF vs OP/MJ subscription load (small) | ~18% avg | "
        + summarize_improvement(
            small.subscription_series()["fsf"],
            small.subscription_series()["operator_placement"],
        )
        + " |",
        "| FSF vs state of the art subscriptions (medium) | 4.5-17.4% | "
        + summarize_improvement(
            medium.subscription_series()["fsf"],
            medium.subscription_series()["operator_placement"],
        )
        + " |",
        "| FSF vs MJ event load (small) | 10-30% | "
        + summarize_improvement(
            small.event_series()["fsf"], small.event_series()["multijoin"]
        )
        + " |",
        "| FSF vs MJ event load (medium) | 48-55.9% | "
        + summarize_improvement(
            medium.event_series()["fsf"], medium.event_series()["multijoin"]
        )
        + " |",
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
        "last point; at scale 0.2 we measure 13-16%, approaching the "
        "paper's ~18% / 4.5-17.4% bands at its full 100-1000 axis.  Run "
        "`repro-experiments fig4 --scale 1.0` to reproduce at paper "
        "scale.",
        "",
    ]
    return "\n".join(parts)
