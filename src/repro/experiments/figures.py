"""Per-figure reproduction harnesses (Figs 4-12 paper, 13-22 beyond).

Each ``figure_N()`` returns a :class:`FigureResult` with the same series
the paper plots; figure pairs that share a scenario (subscription load +
event load) share one underlying run, cached per (scenario, scale, seed)
so the bench suite never recomputes a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

from ..metrics.report import (
    render_series_table,
    render_traffic_accounting,
    summarize_improvement,
)
from ..network.faults import FaultPlan, LinkFault
from ..network.reliability import ReliabilityConfig
from ..protocols.registry import all_approaches, distributed_approaches
from ..workload.scenarios import (
    ADMIT_RETIRE,
    ALL_SCENARIOS,
    CHURN,
    FAULTS,
    LARGE_NETWORK,
    LARGE_SOURCES,
    MEDIUM,
    PLACEMENT,
    SCALE_PRESETS,
    SKETCHES,
    SMALL,
    Scenario,
    default_scale,
)
from ..sketches import SketchConfig
from .runner import RunResult, SeriesResult, run_series

APPROACH_LABELS = {
    "naive": "Naive approach",
    "operator_placement": "Distributed operator placement",
    "multijoin": "Distributed multi-join",
    "fsf": "Filter-Split-Forward",
    "centralized": "Centralized",
}

_SERIES_CACHE: dict[tuple, SeriesResult] = {}


def scenario_series(
    scenario: Scenario,
    scale: float | None = None,
    workers: int | None = None,
) -> SeriesResult:
    """Run (or fetch the cached run of) one scenario's full series.

    ``workers`` defaults to the ``REPRO_WORKERS`` environment knob (the
    CLI's ``--workers`` sets it); the runner's result is the same under
    any worker count, so the cache key deliberately ignores it.

    Scenarios may restrict the measured approaches
    (``Scenario.approach_keys``, used by the placement family).
    """
    eff_scale = default_scale() if scale is None else scale
    key = (scenario.key, eff_scale, scenario.seed)
    if key not in _SERIES_CACHE:
        registry = all_approaches()
        if scenario.approach_keys is not None:
            approaches: Mapping = {
                k: registry[k] for k in scenario.approach_keys
            }
        elif scenario.include_centralized:
            approaches = registry
        else:
            approaches = distributed_approaches()
        _SERIES_CACHE[key] = run_series(
            scenario, approaches, scale=eff_scale, workers=workers
        )
    return _SERIES_CACHE[key]


def clear_cache() -> None:
    _SERIES_CACHE.clear()


@dataclass(frozen=True)
class FigureResult:
    """One reproduced figure: series + rendered text.

    ``xs`` is the figure's x axis — subscription counts for the paper's
    figures, admit rates (floats) for the admit/retire family.
    """

    figure_id: str
    title: str
    x_label: str
    xs: tuple[float, ...]
    series: Mapping[str, tuple[float, ...]]
    notes: str = ""

    def render(self) -> str:
        body = render_series_table(
            f"Figure {self.figure_id}: {self.title}",
            self.x_label,
            self.xs,
            {APPROACH_LABELS.get(k, k): v for k, v in self.series.items()},
        )
        if self.notes:
            body += f"\n{self.notes}"
        return body


def _load_figure(
    figure_id: str,
    title: str,
    scenario: Scenario,
    metric: str,
    scale: float | None,
) -> FigureResult:
    run = scenario_series(scenario, scale)
    if metric == "subscription":
        series = run.subscription_series()
        what = "number of forwarded queries"
    else:
        series = run.event_series()
        what = "number of forwarded data units"
    notes = ""
    if "fsf" in series and "multijoin" in series and metric == "event":
        notes = "FSF vs multi-join improvement: " + summarize_improvement(
            series["fsf"], series["multijoin"]
        )
    if "fsf" in series and "operator_placement" in series and metric == "subscription":
        notes = "FSF vs operator placement improvement: " + summarize_improvement(
            series["fsf"], series["operator_placement"]
        )
    return FigureResult(
        figure_id,
        f"{title} ({what})",
        "Number of injected queries",
        tuple(run.counts),
        {k: tuple(v) for k, v in series.items()},
        notes,
    )


def figure_4(scale: float | None = None) -> FigureResult:
    """Subscription load, small scale."""
    return _load_figure("4", "Subscription load, small scale", SMALL, "subscription", scale)


def figure_5(scale: float | None = None) -> FigureResult:
    """Event load, small scale."""
    return _load_figure("5", "Event load, small scale", SMALL, "event", scale)


def figure_6(scale: float | None = None) -> FigureResult:
    """Subscription load, medium scale (incl. centralized)."""
    return _load_figure("6", "Subscription load, medium scale", MEDIUM, "subscription", scale)


def figure_7(scale: float | None = None) -> FigureResult:
    """Event load, medium scale (incl. centralized)."""
    return _load_figure("7", "Event load, medium scale", MEDIUM, "event", scale)


def figure_8(scale: float | None = None) -> FigureResult:
    """Subscription load, large scale #1 (network size)."""
    return _load_figure(
        "8", "Subscription load, large (network) scale", LARGE_NETWORK, "subscription", scale
    )


def figure_9(scale: float | None = None) -> FigureResult:
    """Event load, large scale #1 (network size)."""
    return _load_figure("9", "Event load, large (network) scale", LARGE_NETWORK, "event", scale)


def figure_10(scale: float | None = None) -> FigureResult:
    """Subscription load, large scale #2 (number of sources)."""
    return _load_figure(
        "10", "Subscription load, large (sources) scale", LARGE_SOURCES, "subscription", scale
    )


def figure_11(scale: float | None = None) -> FigureResult:
    """Event load, large scale #2 (number of sources)."""
    return _load_figure("11", "Event load, large (sources) scale", LARGE_SOURCES, "event", scale)


def figure_12(scale: float | None = None) -> FigureResult:
    """End-user event recall of Filter-Split-Forward, all four settings."""
    raw: dict[str, tuple[tuple[int, ...], tuple[float, ...]]] = {}
    for scenario, label in (
        (SMALL, "Small scale"),
        (MEDIUM, "Medium scale"),
        (LARGE_NETWORK, "Large scale #1"),
        (LARGE_SOURCES, "Large scale #2"),
    ):
        run = scenario_series(scenario, scale)
        raw[label] = (
            tuple(run.counts),
            tuple(round(100 * r, 1) for r in run.recall_series("fsf")),
        )
    # The small-scale axis extends to 1000 queries while the others end
    # at 900 (as in the paper); align on the shared prefix.
    n = min(len(values) for _, values in raw.values())
    xs = next(iter(raw.values()))[0][:n]
    series = {label: values[:n] for label, (_, values) in raw.items()}
    return FigureResult(
        "12",
        "End user event recall (%) for Filter-Split-Forward",
        "Number of injected queries",
        xs,
        series,
        notes="Deterministic approaches measure 100% by construction.",
    )


def figure_13(scale: float | None = None) -> FigureResult:
    """Event load under churn — beyond the paper.

    The dynamic-workload family: the small-scale deployment under a
    two-day drifting, bursty replay where 25% of the sensors leave and
    rejoin mid-campaign.  The notes carry the full per-kind traffic
    accounting (the advertisement channel is live during the replay:
    retraction floods and re-floods are part of the bill).
    """
    run = scenario_series(CHURN, scale)
    accounting = render_traffic_accounting(
        "Traffic accounting under churn (units, whole series)",
        {
            APPROACH_LABELS.get(k, k): results
            for k, results in run.results.items()
        },
    )
    return FigureResult(
        "13",
        "Event load under churn & burst (number of forwarded data units)",
        "Number of injected queries",
        tuple(run.counts),
        {k: tuple(v) for k, v in run.event_series().items()},
        notes=accounting,
    )


def figure_14(scale: float | None = None) -> FigureResult:
    """End-user recall under churn — beyond the paper.

    The deterministic approaches measure 100% at the shipped scales: a
    credited trigger beats the retraction flood whenever they share a
    path, and the remaining race (a nearer trigger arriving after a
    farther retraction fenced its filler) is a hops x latency sliver of
    the delta_t window.  FSF keeps the loss of its per-slot cover rule.
    Deliveries drawn from a departed sensor's not-yet-fenced history
    are the mirror image — counted by ``RecallReport.false_positive_rate``,
    not by this figure.
    """
    run = scenario_series(CHURN, scale)
    series = {
        key: tuple(
            round(100 * r.accuracy.recall, 1) for r in run.results[key]
        )
        for key in run.results
    }
    return FigureResult(
        "14",
        "End user event recall (%) under churn & burst",
        "Number of injected queries",
        tuple(run.counts),
        series,
    )


ADMIT_RATE_AXIS = (0.02, 0.05, 0.1)
"""The x axis of the admit/retire family: Poisson query admissions per
unit of virtual time, swept over the ``admit_retire`` scenario."""


def admit_retire_variant(rate: float) -> Scenario:
    """The ``admit_retire`` scenario at one admit rate (own cache key)."""
    if ADMIT_RETIRE.lifecycle is None:
        raise ValueError("the admit_retire scenario lost its lifecycle config")
    return replace(
        ADMIT_RETIRE,
        key=f"admit_retire@{rate:g}",
        lifecycle=replace(ADMIT_RETIRE.lifecycle, admit_rate=rate),
    )


def _admit_retire_runs(scale: float | None) -> list[SeriesResult]:
    return [
        scenario_series(admit_retire_variant(rate), scale)
        for rate in ADMIT_RATE_AXIS
    ]


def figure_15(scale: float | None = None) -> FigureResult:
    """Steady-state recall under Poisson admit/retire — beyond the paper.

    Queries keep arriving and retiring while sensors stream; each
    query's truth is fenced to its scheduled ``[admit, retire]``
    lifetime, so recall measures what the service could still deliver
    *inside* those lifetimes.  Two races keep deterministic approaches
    marginally below 100%: a trigger published while the registration
    flood is still placing the operator (admission lag), and one
    published just before the teardown reaches the operator's host
    (retirement edge) — both are hops x latency slivers of the replay.
    """
    runs = _admit_retire_runs(scale)
    series = {
        key: tuple(
            round(100 * run.results[key][-1].accuracy.recall, 1)
            for run in runs
        )
        for key in runs[0].results
    }
    fsf_runs = [run.results["fsf"][-1] for run in runs]
    notes = "Queries admitted (total) / retired per rate: " + ", ".join(
        f"{rate:g}/s -> {r.n_subscriptions}/{r.retired_queries}"
        for rate, r in zip(ADMIT_RATE_AXIS, fsf_runs)
    )
    return FigureResult(
        "15",
        "Steady-state recall (%) under Poisson query admit/retire",
        "Query admissions per unit time",
        tuple(ADMIT_RATE_AXIS),
        series,
        notes=notes,
    )


def figure_16(scale: float | None = None) -> FigureResult:
    """Traffic split under Poisson admit/retire — beyond the paper.

    Four lanes per approach, each vs. the admit rate: **registration**
    (operator floods: the settled prefix plus mid-run admissions and
    teardown-repair re-dispatches), **teardown** (``UnsubscribeMessage``
    units — reported separately for the first time), **events**
    (forwarded data units) and **results** (simple events delivered to
    end users).
    """
    runs = _admit_retire_runs(scale)

    def lanes(key: str) -> dict[str, tuple[float, ...]]:
        points = [run.results[key][-1] for run in runs]
        label = APPROACH_LABELS.get(key, key)
        return {
            f"{label} - registration": tuple(
                float(r.final.subscription_units - r.final.teardown_units)
                for r in points
            ),
            f"{label} - teardown": tuple(
                float(r.final.teardown_units) for r in points
            ),
            f"{label} - events": tuple(
                float(r.final.event_units) for r in points
            ),
            f"{label} - results": tuple(
                float(r.accuracy.delivered_events) for r in points
            ),
        }

    series: dict[str, tuple[float, ...]] = {}
    for key in runs[0].results:
        series.update(lanes(key))
    return FigureResult(
        "16",
        "Traffic split (units) under Poisson query admit/retire",
        "Query admissions per unit time",
        tuple(ADMIT_RATE_AXIS),
        series,
        notes="Registration excludes teardown: both travel the "
        "subscription channel, but retirement traffic is metered "
        "separately (TrafficSnapshot.teardown_units).",
    )


LOSS_AXIS = (0.0, 0.02, 0.05, 0.1)
"""The x axis of the fault family: per-link drop probability, swept
over the ``faults`` scenario with reliability on and off.  The 0.2+
regime is omitted — every approach is already at (or near) zero recall
by 10% per-link loss, because a complex match needs *all* of its
participant events to survive independent multi-hop journeys."""


def faults_variant(loss: float, reliable: bool) -> Scenario:
    """The ``faults`` scenario at one loss rate (own cache key).

    ``reliable=False`` strips the ack/retransmit + refresh layer so the
    same seeded fault plan hits raw best-effort links — the on/off pair
    in figure 17 isolates what the reliability layer buys back.
    """
    return replace(
        FAULTS,
        key=f"faults@{loss:g}{'r' if reliable else 'u'}",
        faults=FaultPlan(default=LinkFault(drop=loss), seed=97),
        reliability=ReliabilityConfig() if reliable else None,
    )


def _faults_runs(scale: float | None, reliable: bool) -> list[SeriesResult]:
    return [
        scenario_series(faults_variant(loss, reliable), scale)
        for loss in LOSS_AXIS
    ]


def figure_17(scale: float | None = None) -> FigureResult:
    """Recall vs link loss, reliability on/off — beyond the paper.

    Ten lanes: each approach under the seeded fault plan with the
    reliability layer enabled (acked control traffic, soft-state
    refresh) and disabled (raw best-effort links).  Event traffic is
    never retransmitted in either mode, so the residual decay measures
    the loss physics; the on/off gap measures what protecting *setup
    state* alone recovers — lost advertisement floods and operator
    placements poison every later match, lost events only one.
    """
    on_runs = _faults_runs(scale, True)
    off_runs = _faults_runs(scale, False)
    series: dict[str, tuple[float, ...]] = {}
    for key in on_runs[0].results:
        label = APPROACH_LABELS.get(key, key)
        series[f"{label} (reliable)"] = tuple(
            round(100 * run.results[key][-1].accuracy.recall, 1)
            for run in on_runs
        )
        series[f"{label} (no reliability)"] = tuple(
            round(100 * run.results[key][-1].accuracy.recall, 1)
            for run in off_runs
        )
    return FigureResult(
        "17",
        "End user event recall (%) vs per-link loss rate",
        "Per-link drop probability",
        LOSS_AXIS,
        series,
        notes="Reliability covers control traffic only (ack/retransmit "
        "+ soft-state refresh); events ride the lossy links unprotected "
        "in both modes.",
    )


def figure_18(scale: float | None = None) -> FigureResult:
    """Reliability overhead vs link loss — beyond the paper.

    The price of figure 17's recovered recall: per approach, the units
    the ack/retransmit layer re-sent plus the units the periodic
    soft-state refresh rounds carried, as the loss rate grows.  The
    refresh floor is paid even at zero loss; retransmissions scale with
    the drop rate.
    """
    runs = _faults_runs(scale, True)
    series: dict[str, tuple[float, ...]] = {}
    for key in runs[0].results:
        label = APPROACH_LABELS.get(key, key)
        series[f"{label} - retransmit"] = tuple(
            float(run.results[key][-1].final.retransmission_units)
            for run in runs
        )
        series[f"{label} - refresh"] = tuple(
            float(run.results[key][-1].final.refresh_units) for run in runs
        )
    return FigureResult(
        "18",
        "Reliability overhead (units) vs per-link loss rate",
        "Per-link drop probability",
        LOSS_AXIS,
        series,
        notes="Reliability-on runs only; shares the figure 17 cache. "
        "Refresh units are the periodic soft-state floods (paid even "
        "at zero loss); retransmit units are loss-triggered re-sends "
        "of acked control transfers.",
    )


PLACEMENT_MODES = ("paper", "compiled")
"""The two lanes of the placement family: the paper's
divergence-node heuristic vs the ``repro.placement`` cost-model
compiler, over the same tiered deployment and skewed workload."""


def placement_variant(mode: str) -> Scenario:
    """The ``placement`` scenario in one placement mode (own cache key)."""
    if mode not in PLACEMENT_MODES:
        raise ValueError(f"mode must be one of {PLACEMENT_MODES}, got {mode!r}")
    return replace(PLACEMENT, key=f"placement@{mode}", placement=mode)


def _placement_runs(scale: float | None) -> dict[str, SeriesResult]:
    return {
        mode: scenario_series(placement_variant(mode), scale)
        for mode in PLACEMENT_MODES
    }


def _total_units(r: RunResult) -> float:
    """Everything a run put on the wire, every channel summed once (a
    resend and a refresh copy are billed to their channels already)."""
    final = r.final
    return float(
        final.subscription_units + final.event_units + final.advertisement_units
    )


def figure_19(scale: float | None = None) -> FigureResult:
    """Total traffic, compiled vs paper placement — beyond the paper.

    The heterogeneous-architecture family: tiered node specs and a
    skewed cross-group workload (one wide-filter group flooding partial
    matches, one narrow group).  Per approach, two lanes of *total*
    message units (subscription + event + advertisement channels): the
    paper heuristic, which splits operators at the natural divergence
    node, vs the cost-model compiler, which delays the split toward the
    flooding group's head and gates the partial-match traffic at the
    edge.

    The compiler prices link traffic only, the one resource the
    simulator charges.  Compiled/paper total-unit ratio at the largest
    point (fsf / operator placement / naive): 0.715 / 0.532 / 0.526 at
    ``--scale ci``, 0.746 / 0.658 / 0.658 at ``smoke``.  With the
    unenforced storage and compute terms the model carried up to PR 21
    it was 0.978 / 0.970 / 0.958 and 0.997 / 0.988 / 0.988: they made
    the weak edge nodes, where gating saves the most traffic, the most
    expensive rendezvous.  Figure 20 is unchanged (every lane 100%).
    """
    runs = _placement_runs(scale)
    series: dict[str, tuple[float, ...]] = {}
    for key in runs["paper"].results:
        label = APPROACH_LABELS.get(key, key)
        for mode in PLACEMENT_MODES:
            series[f"{label} ({mode})"] = tuple(
                _total_units(r) for r in runs[mode].results[key]
            )
    ratios = []
    for key in runs["paper"].results:
        paper_total = _total_units(runs["paper"].results[key][-1])
        compiled_total = _total_units(runs["compiled"].results[key][-1])
        if paper_total > 0:
            ratios.append(
                f"{APPROACH_LABELS.get(key, key)}: "
                f"{compiled_total / paper_total:.3f}"
            )
    return FigureResult(
        "19",
        "Total traffic (units), compiled vs paper placement",
        "Number of injected queries",
        tuple(runs["paper"].counts),
        series,
        notes="Compiled/paper total-unit ratio at the largest point: "
        + ", ".join(ratios),
    )


def figure_20(scale: float | None = None) -> FigureResult:
    """Recall, compiled vs paper placement — beyond the paper.

    The safety half of figure 19: delaying the operator split must not
    cost results.  FSF runs with exact filtering in this family, so
    every lane holds 100% and the traffic axis is the only mover.
    """
    runs = _placement_runs(scale)
    series: dict[str, tuple[float, ...]] = {}
    for key in runs["paper"].results:
        label = APPROACH_LABELS.get(key, key)
        for mode in PLACEMENT_MODES:
            series[f"{label} ({mode})"] = tuple(
                round(100 * r.accuracy.recall, 1)
                for r in runs[mode].results[key]
            )
    return FigureResult(
        "20",
        "End user event recall (%), compiled vs paper placement",
        "Number of injected queries",
        tuple(runs["paper"].counts),
        series,
        notes="FSF runs with exact filtering in the placement family; "
        "a compiled lane below its paper twin would mean the delayed "
        "split lost matches.",
    )


SKETCH_K_AXIS = (16, 64, 256)
"""The digest-resolution axis of the sketch family: q-digest
compression parameter ``k`` (``eps = levels / k``), one approximate
lane per value.  Small ``k`` folds aggressively (cheap pushes, loose
bound); large ``k`` keeps nearly every bucket (tight bound)."""


def sketches_variant(k: int) -> Scenario:
    """The ``sketches`` scenario answered approximately at resolution
    ``k`` (own cache key).

    One lane suffices per ``k``: sketch-eligible queries bypass the
    exact pipeline entirely, so every supporting approach produces the
    same lane traffic — FSF stands in for all of them.  The push
    interval and bucket packing are pinned here so the lanes stay
    comparable across ``k``.
    """
    return replace(
        SKETCHES,
        key=f"sketches@{k}",
        sketch=SketchConfig(k=k, push_interval=240.0, buckets_per_unit=6),
        approach_keys=("fsf",),
    )


def _sketch_runs(scale: float | None) -> tuple[SeriesResult, dict[int, SeriesResult]]:
    exact = scenario_series(SKETCHES, scale)
    approx = {
        k: scenario_series(sketches_variant(k), scale) for k in SKETCH_K_AXIS
    }
    return exact, approx


def figure_21(scale: float | None = None) -> FigureResult:
    """Accuracy-vs-traffic, the traffic half — beyond the paper.

    The sketch family: a single-attribute workload (every query a
    sketch-eligible single-slot range filter) over a long replay.  The
    five exact approaches form the frontier; one approximate lane per
    q-digest resolution ``k`` answers the same queries from merged
    broker digests pushed at round intervals instead of forwarding raw
    readings.  At the largest point every approximate lane must spend
    strictly fewer total units than every exact approach — the
    benchmark gate machine-checks exactly that inequality.
    """
    exact, approx = _sketch_runs(scale)
    series: dict[str, tuple[float, ...]] = {}
    for key in exact.results:
        series[f"{APPROACH_LABELS.get(key, key)} (exact)"] = tuple(
            _total_units(r) for r in exact.results[key]
        )
    for k in SKETCH_K_AXIS:
        series[f"Approximate lane (k={k})"] = tuple(
            _total_units(r) for r in approx[k].results["fsf"]
        )
    frontier = min(
        _total_units(runs[-1]) for runs in exact.results.values()
    )
    ratios = ", ".join(
        f"k={k}: {_total_units(approx[k].results['fsf'][-1]) / frontier:.3f}"
        for k in SKETCH_K_AXIS
    )
    return FigureResult(
        "21",
        "Total traffic (units), exact frontier vs approximate lanes",
        "Number of subscriptions",
        tuple(exact.counts),
        series,
        notes="Approximate/cheapest-exact total-unit ratio at the "
        f"largest point: {ratios}.  Lane traffic = push-tree setup on "
        "the subscription channel + digest pushes on the event channel.",
    )


def figure_22(scale: float | None = None) -> FigureResult:
    """Accuracy-vs-traffic, the accuracy half — beyond the paper.

    What figure 21's savings cost: exact lanes report end-user event
    recall; approximate lanes report the oracle-checked count accuracy
    of their certified range answers (symmetric min/max ratio of
    estimate vs true count, 100% = every estimate exact).  The oracle
    also re-checks every certificate — observed rank error within the
    deterministic q-digest bound, zero violations tolerated.
    """
    exact, approx = _sketch_runs(scale)
    series: dict[str, tuple[float, ...]] = {}
    for key in exact.results:
        series[f"{APPROACH_LABELS.get(key, key)} (exact)"] = tuple(
            round(100 * r.accuracy.recall, 1) for r in exact.results[key]
        )
    for k in SKETCH_K_AXIS:
        series[f"Approximate lane (k={k})"] = tuple(
            round(100 * r.approx.mean_recall, 1)
            for r in approx[k].results["fsf"]
        )
    last = {k: approx[k].results["fsf"][-1].approx for k in SKETCH_K_AXIS}
    errors = ", ".join(
        f"k={k}: max |err| {report.max_observed_error} "
        f"({report.bound_violations} violations)"
        for k, report in last.items()
    )
    return FigureResult(
        "22",
        "Answer accuracy (%), exact recall vs certified approximate counts",
        "Number of subscriptions",
        tuple(exact.counts),
        series,
        notes="Observed rank error vs the q-digest guarantee at the "
        f"largest point: {errors}.  A non-zero violation count would "
        "mean a certificate lied; the benchmark gate asserts zero.",
    )


ALL_FIGURES = {
    "4": figure_4,
    "5": figure_5,
    "6": figure_6,
    "7": figure_7,
    "8": figure_8,
    "9": figure_9,
    "10": figure_10,
    "11": figure_11,
    "12": figure_12,
    "13": figure_13,
    "14": figure_14,
    "15": figure_15,
    "16": figure_16,
    "17": figure_17,
    "18": figure_18,
    "19": figure_19,
    "20": figure_20,
    "21": figure_21,
    "22": figure_22,
}

class FigureFamily(NamedTuple):
    """One beyond-paper figure family: its figures and, where it sweeps
    an axis of its own, that axis as the ``--list`` catalog prints it."""

    figures: tuple[str, ...]
    axis: str | None = None
    axis_values: tuple = ()


FIGURE_FAMILIES: dict[str, FigureFamily] = {
    "churn": FigureFamily(("13", "14")),
    "admit_retire": FigureFamily(("15", "16"), "admit-rate axis", ADMIT_RATE_AXIS),
    "faults": FigureFamily(("17", "18"), "link-loss axis", LOSS_AXIS),
    "placement": FigureFamily(("19", "20"), "placement lanes", PLACEMENT_MODES),
    "sketches": FigureFamily(
        ("21", "22"), "digest-resolution axis", SKETCH_K_AXIS
    ),
}
"""The families past the paper's 4-12 set, keyed by scenario family.
The one table the CLI's ``--family`` choices, the ``--list`` catalog and
the bulk targets' selection (:func:`selected_figures`) derive from."""

ALL_FAMILIES = "beyond"
"""``--family`` value selecting every family at once."""

BEYOND_PAPER_FIGURES = tuple(
    fig_id for family in FIGURE_FAMILIES.values() for fig_id in family.figures
)
"""Figures gated behind ``--family`` for the ``all`` / ``experiments-md``
targets; their dedicated ``figN`` targets always run."""

FIGURE_GATES: dict[str, str] = {
    fig_id: f"--family {name} (or --family {ALL_FAMILIES})"
    for name, family in FIGURE_FAMILIES.items()
    for fig_id in family.figures
}
"""Which ``--family`` value unlocks each gated figure under the bulk
targets."""


def selected_figures(families: Iterable[str] = ()) -> list[str]:
    """Figure ids the ``all`` / ``experiments-md`` targets render: the
    paper's own plus those of the named ``families``."""
    families = set(families)
    unknown = families - {*FIGURE_FAMILIES, ALL_FAMILIES}
    if unknown:
        raise ValueError(
            f"unknown figure families {sorted(unknown)}; "
            f"known: {[*FIGURE_FAMILIES, ALL_FAMILIES]}"
        )
    skipped = {
        fig_id
        for name, family in FIGURE_FAMILIES.items()
        if name not in families and ALL_FAMILIES not in families
        for fig_id in family.figures
    }
    return [
        fig_id for fig_id in sorted(ALL_FIGURES, key=int) if fig_id not in skipped
    ]


FIGURE_SCENARIOS: dict[str, str] = {
    "4": "small",
    "5": "small",
    "6": "medium",
    "7": "medium",
    "8": "large_network",
    "9": "large_network",
    "10": "large_sources",
    "11": "large_sources",
    "12": "small+medium+large_network+large_sources",
    "13": "churn",
    "14": "churn",
    "15": "admit_retire (rate sweep)",
    "16": "admit_retire (rate sweep)",
    "17": "faults (loss sweep, reliability on/off)",
    "18": "faults (loss sweep, reliability on)",
    "19": "placement (compiled vs paper lanes)",
    "20": "placement (compiled vs paper lanes)",
    "21": "sketches (exact frontier vs approximate lanes)",
    "22": "sketches (exact frontier vs approximate lanes)",
}
"""Which scenario family feeds each figure — the ``--list`` catalog."""


def render_catalog() -> str:
    """The discoverability listing behind ``repro-experiments --list``:
    scenario families with their per-preset measurement axes, the
    figure register, and the scale presets."""
    lines = ["Scenario families", "================="]
    for key, scenario in ALL_SCENARIOS.items():
        lines.append(f"{key}: {scenario.title}")
        axes = ", ".join(
            f"{name}={scenario.subscription_counts(value)}"
            for name, value in sorted(
                SCALE_PRESETS.items(), key=lambda kv: kv[1]
            )
        )
        lines.append(f"  subscription axis per preset: {axes}")
        extras = []
        if scenario.dynamic is not None:
            extras.append("dynamic replay")
        if scenario.churn is not None:
            extras.append("sensor churn")
        if scenario.lifecycle is not None:
            extras.append(
                f"query lifecycle (admit_rate={scenario.lifecycle.admit_rate:g})"
            )
        if scenario.faults is not None:
            extras.append(
                f"fault injection (drop={scenario.faults.default.drop:g})"
            )
        if scenario.reliability is not None:
            extras.append("ack/retransmit + soft-state refresh")
        if scenario.span_groups > 1:
            extras.append(f"cross-group queries (span {scenario.span_groups})")
        if scenario.group_width_scale:
            extras.append(
                "skewed group widths "
                f"{list(scenario.group_width_scale)}"
            )
        if scenario.approach_keys is not None:
            extras.append(f"approaches: {', '.join(scenario.approach_keys)}")
        if scenario.include_centralized:
            extras.append("includes centralized")
        if extras:
            lines.append(f"  features: {', '.join(extras)}")
    lines += ["", "Figures", "======="]
    for fig_id in sorted(ALL_FIGURES, key=int):
        gate = FIGURE_GATES.get(fig_id)
        beyond = (
            f" [beyond the paper; gate: {gate}]" if gate is not None else ""
        )
        lines.append(
            f"fig{fig_id}: scenario {FIGURE_SCENARIOS[fig_id]}{beyond}"
        )
    for family in FIGURE_FAMILIES.values():
        if family.axis is not None:
            lines.append(
                f"  {family.axis} (figs {'-'.join(family.figures)}): "
                f"{list(family.axis_values)}"
            )
    lines += ["", "Scale presets", "============="]
    for name, value in sorted(SCALE_PRESETS.items(), key=lambda kv: kv[1]):
        lines.append(f"{name}: {value}")
    return "\n".join(lines)
