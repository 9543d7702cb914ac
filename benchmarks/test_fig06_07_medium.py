"""Figures 6 and 7 — subscription and event load, medium scale, with
the centralized comparison.

Paper claims: centralized has by far the lowest subscription load (it
unicasts once to the centre instead of splitting toward every sensor);
its event traffic has a large fixed component (every reading crosses
the network) that outweighs those gains; FSF beats the distributed
state of the art by 4.5-17.4% on subscriptions and the multi-join
approach by 48-55.9% on events.
"""

from repro.experiments import figures

from benchlib import render_and_record


def test_figure_6_subscription_load(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("6", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    last = {k: v[-1] for k, v in result.series.items()}
    assert last["centralized"] < last["fsf"], "centralized wins subscriptions"
    assert last["fsf"] < last["operator_placement"] <= last["naive"]


def test_figure_7_event_load(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("7", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    first = {k: v[0] for k, v in result.series.items()}
    last = {k: v[-1] for k, v in result.series.items()}
    # The fixed all-events-to-centre component dominates at low load ...
    assert first["centralized"] > first["fsf"]
    assert first["centralized"] > first["naive"]
    # ... and centralized stays above FSF throughout.
    assert last["centralized"] > last["fsf"]
    # FSF vs multi-join margin grows with 5-attribute subscriptions.
    improvement = (last["multijoin"] - last["fsf"]) / last["multijoin"]
    assert improvement >= 0.25
