"""Figures 8 and 9 — large scale #1: influence of the network size.

Paper claims: same orderings as the medium experiment; absolute totals
grow with network size (longer user-to-sensor paths); FSF's event-load
margin over multi-join widens (56-62%) because false positives travel
more links.
"""

from repro.experiments import figures

from benchlib import render_and_record


def test_figure_8_subscription_load(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("8", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    last = {k: v[-1] for k, v in result.series.items()}
    assert last["fsf"] < last["operator_placement"] <= last["naive"]
    # Larger network => more forwarded queries than the medium setting
    # at the same subscription count.
    medium = figures.figure("6", scale).series
    shared = min(len(medium["naive"]), len(result.series["naive"])) - 1
    assert result.series["naive"][shared] > medium["naive"][shared]


def test_figure_9_event_load(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("9", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    last = {k: v[-1] for k, v in result.series.items()}
    assert last["fsf"] < last["multijoin"] < last["naive"]
    improvement = (last["multijoin"] - last["fsf"]) / last["multijoin"]
    assert improvement >= 0.25
