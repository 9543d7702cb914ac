"""Figures 10 and 11 — large scale #2: influence of the number of
distinct data sources (20 base-station groups instead of 10).

Paper claims: with subscriptions spread over twice the groups, the
candidate sets for subsumption shrink and subscription-load reduction
opportunities decrease; the event-load advantage of the
filter-split-forward phases persists regardless (54-68% over
multi-join).
"""

from repro.experiments import figures

from benchlib import render_and_record


def test_figure_10_subscription_load(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("10", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    last = {k: v[-1] for k, v in result.series.items()}
    assert last["fsf"] <= last["operator_placement"] <= last["naive"]
    # Reduced set-reduction opportunity: FSF's relative margin over
    # operator placement is smaller here than in large scale #1.
    l1 = figures.figure("8", scale).series
    margin_sources = 1 - last["fsf"] / last["operator_placement"]
    margin_network = 1 - l1["fsf"][-1] / l1["operator_placement"][-1]
    assert margin_sources <= margin_network + 0.02


def test_figure_11_event_load(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("11", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    last = {k: v[-1] for k, v in result.series.items()}
    assert last["fsf"] < last["multijoin"]
    assert last["fsf"] < last["naive"]
    # (The paper's multi-join-below-naive ordering needs its 100-900
    # subscription density; with 20 groups at scaled-down counts the
    # naive approach has little overlap to duplicate and the two curves
    # sit close together — see EXPERIMENTS.md, known deviations.)
    improvement = (last["multijoin"] - last["fsf"]) / last["multijoin"]
    assert improvement >= 0.25
