"""Figures 13-14 — the churn-and-burst family (beyond the paper).

A two-day drifting, Pareto-bursty replay on the small-scale deployment
with 25% of the sensors leaving and rejoining mid-campaign.  Shape
claims asserted here:

* FSF still forwards no more event units than the multi-join baseline —
  the savings survive a live advertisement channel;
* re-flood traffic is genuinely measured (every approach pays the same
  retraction/re-flood bill, the flooding being approach-independent);
* the deterministic approaches hold (near-)100% recall against the
  churn-aware oracle: a credited trigger beats the retraction flood
  whenever they share a path, and the residual race (a closer trigger
  arriving after a farther retraction fenced its filler) is bounded by
  hop-difference x latency — a sliver of the delta_t window.
"""

from repro.experiments import figures
from repro.metrics.report import traffic_accounting

from benchlib import render_and_record


def test_figure_13_event_load_under_churn(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("13", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    fsf = result.series["fsf"]
    multijoin = result.series["multijoin"]
    assert all(f <= m for f, m in zip(fsf, multijoin)), (fsf, multijoin)
    # The advertisement channel was live: re-floods happened and the
    # accounting includes them.
    run = figures.scenario_series(figures.CHURN, scale)
    for key, results in run.results.items():
        totals = traffic_accounting(results)
        assert totals["reflood_units"] > 0, key
        assert totals["advertisement_units"] > totals["reflood_units"], key


def test_figure_14_recall_under_churn(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("14", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    for key in ("naive", "operator_placement", "multijoin"):
        # Not a hard 100: a trigger from a near host can, in principle,
        # reach a broker after a farther sensor's retraction fenced its
        # filler (a hops x latency window inside delta_t).  The current
        # scales measure 100.0; the floor only tolerates that race.
        assert all(v >= 99.0 for v in result.series[key]), key
    assert all(v >= 85.0 for v in result.series["fsf"])
