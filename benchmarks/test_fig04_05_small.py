"""Figures 4 and 5 — subscription and event load, small scale.

Paper claims: the naive approach is worst; operator placement and
multi-join reduce subscriptions via pair-wise coverage; FSF injects the
fewest subscriptions (~18% below the state of the art on average) and
beats the multi-join approach on event load by 10-30%.
"""

from repro.experiments import figures

from benchlib import render_and_record


def test_figure_4_subscription_load(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("4", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    last = {k: v[-1] for k, v in result.series.items()}
    assert last["fsf"] < last["operator_placement"] <= last["naive"]
    assert last["fsf"] < last["multijoin"]
    # FSF's set filtering beats pair-wise coverage by a real margin —
    # once there are enough overlapping subscriptions for unions to
    # subsume what no single subscription covers.  At the smoke preset
    # (a handful of subscriptions per group) the mosaic is too thin for
    # a 5% gap, so only the strict ordering is asserted there.
    margin = 0.95 if scale >= 0.1 else 1.0
    assert last["fsf"] <= margin * last["operator_placement"]


def test_figure_5_event_load(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("5", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    last = {k: v[-1] for k, v in result.series.items()}
    assert last["fsf"] < last["multijoin"] < last["naive"]
    assert last["operator_placement"] <= last["naive"]
    # Paper: 10-30% better than multi-join at small scale (we accept a
    # generous band — shapes, not absolutes).
    improvement = (last["multijoin"] - last["fsf"]) / last["multijoin"]
    assert improvement >= 0.08
