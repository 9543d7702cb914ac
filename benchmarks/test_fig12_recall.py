"""Figure 12 — end-user event recall of Filter-Split-Forward.

Paper claims: "The measured accuracy is 100% in some cases, and
generally around 98%.  However, for the small scale experiment and the
large scale experiment with small number of subscriptions, the recall
is around 93%" — all four settings stay comfortably above 90%, and the
deterministic competitors are at 100% by construction (asserted in the
unit suite).
"""

from repro.experiments import figures

from benchlib import render_and_record


def test_figure_12_recall(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("12", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    for setting, values in result.series.items():
        assert all(v >= 85.0 for v in values), (setting, values)
        assert max(values) >= 95.0, (setting, values)
    overall = [v for values in result.series.values() for v in values]
    assert sum(overall) / len(overall) >= 92.0
