"""Per-figure reproduction harnesses (Figs 4-12 paper, 13-20 beyond).

Every figure is one :class:`FigureSpec` in :data:`FIGURES`, and
:func:`figure` renders any of them as a :class:`FigureResult` with the
same series the paper plots.  The CLI targets, the ``--family`` gates,
the ``--list`` catalog and EXPERIMENTS.md all derive from that table.
Figure pairs that share a scenario (subscription load + event load)
share one underlying run, cached per (scenario, scale, seed) so the
bench suite never recomputes a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

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
    SMALL,
    Scenario,
    default_scale,
)
from .runner import RunResult, SeriesResult, run_series

APPROACH_LABELS = {key: a.name for key, a in all_approaches().items()}
"""Series key -> the approach's display name (its Table II name)."""

_SERIES_CACHE: dict[tuple, SeriesResult] = {}


def scenario_series(scenario: Scenario, scale: float | None = None) -> SeriesResult:
    """Run (or fetch the cached run of) one scenario's full series.

    The worker count is the ``REPRO_WORKERS`` environment knob (the
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
            approaches: Mapping = {k: registry[k] for k in scenario.approach_keys}
        elif scenario.include_centralized:
            approaches = registry
        else:
            approaches = distributed_approaches()
        _SERIES_CACHE[key] = run_series(scenario, approaches, scale=eff_scale)
    return _SERIES_CACHE[key]


def clear_cache() -> None:
    _SERIES_CACHE.clear()


Series = dict[str, tuple[float, ...]]
Built = tuple[Sequence[float], Mapping[str, tuple[float, ...]], str]


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


@dataclass(frozen=True)
class FigureSpec:
    """One figure: what it reads, how it plots it, what it claims.

    ``runs(scale)`` fetches the cached series the figure reads, and
    ``build(runs)`` turns them into ``(xs, series, notes)``.  ``claim``
    is the paper's claim for Figs 4-12 and this repo's for the
    beyond-paper figures, which carry their ``--family`` name and, where
    the family sweeps an axis of its own, that axis as ``(name,
    values)`` for the ``--list`` catalog.  The load figures name their
    ``metric`` (:data:`RIVALS`); Figs 4-7 add a ``headline`` row (label,
    paper band) to EXPERIMENTS.md's margin table.
    """

    fig_id: str
    title: str
    x_label: str
    scenario: str
    runs: Callable[[float | None], Any]
    build: Callable[[Any], Built]
    claim: str
    family: str | None = None
    axis: tuple[str, tuple] | None = None
    metric: str | None = None
    headline: tuple[str, str] | None = None


def figure(fig_id: str, scale: float | None = None) -> FigureResult:
    """Render the figure :data:`FIGURES` holds under ``fig_id``."""
    spec = FIGURES[fig_id]
    xs, series, notes = spec.build(spec.runs(scale))
    return FigureResult(fig_id, spec.title, spec.x_label, tuple(xs), series, notes)


RIVALS = {
    "subscription": ("operator_placement", "operator placement"),
    "event": ("multijoin", "multi-join"),
}
"""Figs 4-11's improvement pair per load metric: FSF against operator
placement on subscriptions and against multi-join on events."""


def improvement(series: Mapping[str, Sequence[float]], metric: str) -> str:
    """FSF's improvement over the metric's rival (:data:`RIVALS`)."""
    return summarize_improvement(series["fsf"], series[RIVALS[metric][0]])


_QUERIES = "Number of injected queries"
_RATES = "Query admissions per unit time"
_LOSS = "Per-link drop probability"


def _label(key: str) -> str:
    return APPROACH_LABELS.get(key, key)


def _recall(r: RunResult) -> float:
    return round(100 * r.accuracy.recall, 1)


def _load(
    fig_id: str,
    title: str,
    scenario: Scenario,
    metric: str,
    claim: str,
    headline: tuple[str, str] | None = None,
) -> FigureSpec:
    """Figs 4-11: one load metric of one paper scenario, with FSF's
    improvement over the metric's rival in the notes."""

    def build(run: SeriesResult) -> Built:
        load = run.subscription_series if metric == "subscription" else run.event_series
        series = load()
        notes = f"FSF vs {RIVALS[metric][1]} improvement: {improvement(series, metric)}"
        return run.counts, {k: tuple(v) for k, v in series.items()}, notes

    what = "queries" if metric == "subscription" else "data units"
    return FigureSpec(
        fig_id,
        f"{title} (number of forwarded {what})",
        _QUERIES,
        scenario.key,
        lambda scale: scenario_series(scenario, scale),
        build,
        claim,
        metric=metric,
        headline=headline,
    )


RECALL_SETTINGS = {
    "Small scale": SMALL,
    "Medium scale": MEDIUM,
    "Large scale #1": LARGE_NETWORK,
    "Large scale #2": LARGE_SOURCES,
}
"""Figure 12's four settings, one FSF recall lane each."""


def _fig12(runs: dict[str, SeriesResult]) -> Built:
    # The small-scale axis extends to 1000 queries while the others end
    # at 900 (as in the paper); align on the shared prefix.
    n = min(len(run.counts) for run in runs.values())
    series = {
        label: tuple(round(100 * r, 1) for r in run.recall_series("fsf"))[:n]
        for label, run in runs.items()
    }
    xs = runs["Small scale"].counts[:n]
    return xs, series, "Deterministic approaches measure 100% by construction."


def _fig13(run: SeriesResult) -> Built:
    accounting = render_traffic_accounting(
        "Traffic accounting under churn (units, whole series)",
        {_label(k): results for k, results in run.results.items()},
    )
    series = {k: tuple(v) for k, v in run.event_series().items()}
    return run.counts, series, accounting


def _fig14(run: SeriesResult) -> Built:
    series = {
        key: tuple(_recall(r) for r in results)
        for key, results in run.results.items()
    }
    return run.counts, series, ""


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


def _fig15(runs: list[SeriesResult]) -> Built:
    series = {
        key: tuple(_recall(run.results[key][-1]) for run in runs)
        for key in runs[0].results
    }
    fsf_runs = [run.results["fsf"][-1] for run in runs]
    notes = "Queries admitted (total) / retired per rate: " + ", ".join(
        f"{rate:g}/s -> {r.n_subscriptions}/{r.retired_queries}"
        for rate, r in zip(ADMIT_RATE_AXIS, fsf_runs)
    )
    return ADMIT_RATE_AXIS, series, notes


def _fig16(runs: list[SeriesResult]) -> Built:
    # Four lanes per approach: registration (operator floods: the
    # settled prefix plus mid-run admissions and teardown-repair
    # re-dispatches), teardown (UnsubscribeMessage units), events
    # (forwarded data units) and results (simple events delivered to
    # end users).
    series: Series = {}
    for key in runs[0].results:
        points = [run.results[key][-1] for run in runs]
        final = [r.final for r in points]
        label = _label(key)
        series[f"{label} - registration"] = tuple(
            float(f.subscription_units - f.teardown_units) for f in final
        )
        series[f"{label} - teardown"] = tuple(float(f.teardown_units) for f in final)
        series[f"{label} - events"] = tuple(float(f.event_units) for f in final)
        series[f"{label} - results"] = tuple(
            float(r.accuracy.delivered_events) for r in points
        )
    notes = (
        "Registration excludes teardown: both travel the subscription "
        "channel, but retirement traffic is metered separately "
        "(TrafficSnapshot.teardown_units)."
    )
    return ADMIT_RATE_AXIS, series, notes


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


def _fig17(modes: tuple[list[SeriesResult], list[SeriesResult]]) -> Built:
    on_runs, off_runs = modes
    series: Series = {}
    for key in on_runs[0].results:
        for mode, runs in (("reliable", on_runs), ("no reliability", off_runs)):
            series[f"{_label(key)} ({mode})"] = tuple(
                _recall(run.results[key][-1]) for run in runs
            )
    notes = (
        "Reliability covers control traffic only (ack/retransmit "
        "+ soft-state refresh); events ride the lossy links unprotected "
        "in both modes."
    )
    return LOSS_AXIS, series, notes


def _fig18(runs: list[SeriesResult]) -> Built:
    series: Series = {}
    for key in runs[0].results:
        final = [run.results[key][-1].final for run in runs]
        label = _label(key)
        series[f"{label} - retransmit"] = tuple(
            float(f.retransmission_units) for f in final
        )
        series[f"{label} - refresh"] = tuple(float(f.refresh_units) for f in final)
    notes = (
        "Reliability-on runs only; shares the figure 17 cache. "
        "Refresh units are the periodic soft-state floods (paid even "
        "at zero loss); retransmit units are loss-triggered re-sends "
        "of acked control transfers."
    )
    return LOSS_AXIS, series, notes


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


def _placement_lanes(
    runs: dict[str, SeriesResult], value: Callable[[RunResult], float]
) -> Series:
    """One lane per approach and placement mode, ``value`` per point."""
    return {
        f"{_label(key)} ({mode})": tuple(value(r) for r in runs[mode].results[key])
        for key in runs["paper"].results
        for mode in PLACEMENT_MODES
    }


def _fig19(runs: dict[str, SeriesResult]) -> Built:
    ratios = []
    for key in runs["paper"].results:
        paper_total = _total_units(runs["paper"].results[key][-1])
        compiled_total = _total_units(runs["compiled"].results[key][-1])
        if paper_total > 0:
            ratios.append(f"{_label(key)}: {compiled_total / paper_total:.3f}")
    notes = f"Compiled/paper total-unit ratio at the largest point: {', '.join(ratios)}"
    return runs["paper"].counts, _placement_lanes(runs, _total_units), notes


def _fig20(runs: dict[str, SeriesResult]) -> Built:
    notes = (
        "FSF keeps its one per-slot cover rule in the placement family; "
        "a compiled lane below its paper twin would mean the delayed "
        "split lost matches."
    )
    return runs["paper"].counts, _placement_lanes(runs, _recall), notes


_ADMIT_AXIS = ("admit-rate axis", ADMIT_RATE_AXIS)
_LOSS_AXIS = ("link-loss axis", LOSS_AXIS)
_PLACEMENT_AXIS = ("placement lanes", PLACEMENT_MODES)

FIGURES: dict[str, FigureSpec] = {spec.fig_id: spec for spec in (
    _load(
        "4", "Subscription load, small scale", SMALL, "subscription",
        "Naive worst; OP and MJ reduce via pair-wise coverage; FSF best "
        "(~18% fewer forwarded queries on average than OP/MJ).",
        ("FSF vs OP/MJ subscription load (small)", "~18% avg"),
    ),
    _load(
        "5", "Event load, small scale", SMALL, "event",
        "Log-scale event load: naive/OP highest, FSF beats MJ by 10-30%.",
        ("FSF vs MJ event load (small)", "10-30%"),
    ),
    _load(
        "6", "Subscription load, medium scale", MEDIUM, "subscription",
        "Centralized has by far the lowest subscription load; FSF beats "
        "the distributed state of the art by 4.5-17.4%.",
        ("FSF vs state of the art subscriptions (medium)", "4.5-17.4%"),
    ),
    _load(
        "7", "Event load, medium scale", MEDIUM, "event",
        "Centralized event traffic is the largest; FSF beats MJ by 48-55.9%.",
        ("FSF vs MJ event load (medium)", "48-55.9%"),
    ),
    _load(
        "8", "Subscription load, large (network) scale", LARGE_NETWORK, "subscription",
        "Same ordering as medium scale; totals grow with network size.",
    ),
    _load(
        "9", "Event load, large (network) scale", LARGE_NETWORK, "event",
        "FSF beats MJ by 56-62% (network size amplifies event savings).",
    ),
    _load(
        "10", "Subscription load, large (sources) scale", LARGE_SOURCES, "subscription",
        "Less set-reduction opportunity with 20 groups (smaller candidate sets).",
    ),
    _load(
        "11", "Event load, large (sources) scale", LARGE_SOURCES, "event",
        "FSF beats MJ by 54-68% regardless of candidate-set size.",
    ),
    FigureSpec(
        "12", "End user event recall (%) for Filter-Split-Forward", _QUERIES,
        "+".join(s.key for s in RECALL_SETTINGS.values()),
        lambda scale: {
            k: scenario_series(v, scale) for k, v in RECALL_SETTINGS.items()
        },
        _fig12,
        "FSF recall 100% in some cases, generally around 98%, worst "
        "~93% (small scale / few subscriptions).",
    ),
    # Figures 13-14 go beyond the paper: the dynamic churn-and-burst
    # family (multi-day drifting replay, sensor leave/rejoin).
    FigureSpec(
        "13", "Event load under churn & burst (number of forwarded data units)",
        _QUERIES, "churn", lambda scale: scenario_series(CHURN, scale), _fig13,
        "Beyond the paper — event load under a 2-day bursty replay "
        "with 25% sensor churn; advertisement accounting includes the "
        "retraction/re-flood traffic the static figures never exercise.",
        family="churn",
    ),
    # The deterministic lanes measure 100% at the shipped scales; the
    # remaining race (a nearer trigger arriving after a farther
    # retraction fenced its filler) is a hops x latency sliver of the
    # delta_t window.  Deliveries drawn from a departed sensor's
    # not-yet-fenced history are the mirror image, counted by
    # ``RecallReport.false_positive_rate``, not by this figure.
    FigureSpec(
        "14", "End user event recall (%) under churn & burst", _QUERIES,
        "churn", lambda scale: scenario_series(CHURN, scale), _fig14,
        "Beyond the paper — recall under churn: deterministic "
        "approaches hold 100% against the churn-aware oracle (the trigger "
        "outruns the retraction flood); FSF keeps its cover-rule margin.",
        family="churn",
    ),
    # The two races: a trigger published while the registration flood
    # is still placing the operator (admission lag), and one published
    # just before the teardown reaches the operator's host (retirement
    # edge) — both hops x latency slivers of the replay.
    FigureSpec(
        "15", "Steady-state recall (%) under Poisson query admit/retire",
        _RATES, "admit_retire (rate sweep)", _admit_retire_runs, _fig15,
        "Beyond the paper — steady-state recall while queries keep "
        "arriving (Poisson) and retiring (exponential holds), each fenced "
        "to its scheduled lifetime in the oracle; admission-lag and "
        "retirement-edge races bound the loss.",
        family="admit_retire", axis=_ADMIT_AXIS,
    ),
    FigureSpec(
        "16", "Traffic split (units) under Poisson query admit/retire",
        _RATES, "admit_retire (rate sweep)", _admit_retire_runs, _fig16,
        "Beyond the paper — the traffic bill of an ongoing query "
        "service, split registration / teardown (UnsubscribeMessage units, "
        "metered separately) / events / results, per approach, vs. the "
        "admit rate.",
        family="admit_retire", axis=_ADMIT_AXIS,
    ),
    # Event traffic is never retransmitted in either mode: lost
    # advertisement floods and operator placements poison every later
    # match, a lost event only one.
    FigureSpec(
        "17", "End user event recall (%) vs per-link loss rate", _LOSS,
        "faults (loss sweep, reliability on/off)",
        lambda scale: (_faults_runs(scale, True), _faults_runs(scale, False)),
        _fig17,
        "Beyond the paper — recall vs per-link loss with the "
        "ack/retransmit + soft-state-refresh layer on and off: protecting "
        "control traffic alone recovers most of the recall lost to broken "
        "setup state; the residual decay is the unprotected event traffic's "
        "multi-hop loss physics.",
        family="faults", axis=_LOSS_AXIS,
    ),
    FigureSpec(
        "18", "Reliability overhead (units) vs per-link loss rate", _LOSS,
        "faults (loss sweep, reliability on)",
        lambda scale: _faults_runs(scale, True), _fig18,
        "Beyond the paper — the reliability layer's bill: refresh "
        "units are a loss-independent floor (periodic soft-state floods), "
        "retransmit units grow with the drop rate.",
        family="faults", axis=_LOSS_AXIS,
    ),
    # The compiler prices link traffic only, the one resource the
    # simulator charges.  Compiled/paper ratio at the largest point (fsf
    # / operator placement / naive): 0.715 / 0.532 / 0.526 at ``--scale
    # ci``, 0.746 / 0.658 / 0.658 at ``smoke``.  With the unenforced
    # storage and compute terms the model once carried it was 0.978 /
    # 0.970 / 0.958 and 0.997 / 0.988 / 0.988: they made the weak edge
    # nodes, where gating saves the most traffic, the most expensive
    # rendezvous.
    FigureSpec(
        "19", "Total traffic (units), compiled vs paper placement", _QUERIES,
        "placement (compiled vs paper lanes)", _placement_runs, _fig19,
        "Beyond the paper — total traffic on a tiered architecture "
        "graph with a skewed cross-group workload: the placement compiler "
        "delays the operator split past the natural divergence node, "
        "gating the wide group's partial-match flood at its head; the "
        "compiled lane undercuts the paper heuristic per approach.",
        family="placement", axis=_PLACEMENT_AXIS,
    ),
    FigureSpec(
        "20", "End user event recall (%), compiled vs paper placement",
        _QUERIES, "placement (compiled vs paper lanes)", _placement_runs, _fig20,
        "Beyond the paper — the safety half of fig 19: every lane, FSF's "
        "under its one per-slot cover rule too, holds 100% recall at the "
        "smoke and ci scales, so the compiled placement's traffic savings "
        "are free of result loss.",
        family="placement", axis=_PLACEMENT_AXIS,
    ),
)}
"""Every figure, in figure order: the one table the CLI targets, the
``--family`` gates, the ``--list`` catalog and EXPERIMENTS.md read."""

ALL_FAMILIES = "beyond"
"""``--family`` value selecting every family at once."""


def family_names() -> list[str]:
    """The beyond-paper families, in figure order."""
    return list(dict.fromkeys(s.family for s in FIGURES.values() if s.family))


def selected_figures(families: Iterable[str] = ()) -> list[str]:
    """Figure ids the ``all`` / ``experiments-md`` targets render: the
    paper's own plus those of the named families (their dedicated
    ``figN`` targets always run)."""
    chosen = set(families)
    unknown = chosen - {*family_names(), ALL_FAMILIES}
    if unknown:
        raise ValueError(
            f"unknown figure families {sorted(unknown)}; "
            f"known: {[*family_names(), ALL_FAMILIES]}"
        )
    return [
        fig_id
        for fig_id, spec in FIGURES.items()
        if spec.family is None or {spec.family, ALL_FAMILIES} & chosen
    ]


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
    axes: dict[tuple, list[str]] = {}
    for fig_id, spec in FIGURES.items():
        gate = ""
        if spec.family is not None:
            gate = (
                " [beyond the paper; gate: --family "
                f"{spec.family} (or --family {ALL_FAMILIES})]"
            )
        lines.append(f"fig{fig_id}: scenario {spec.scenario}{gate}")
        if spec.axis is not None:
            axes.setdefault(spec.axis, []).append(fig_id)
    for (name, values), fig_ids in axes.items():
        lines.append(f"  {name} (figs {'-'.join(fig_ids)}): {list(values)}")
    lines += ["", "Scale presets", "============="]
    for name, value in sorted(SCALE_PRESETS.items(), key=lambda kv: kv[1]):
        lines.append(f"{name}: {value}")
    return "\n".join(lines)
