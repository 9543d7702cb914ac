"""Figures 21-22 — the approximate-answer family (beyond the paper).

A single-attribute workload where every query is a sketch-eligible
single-slot range filter, over a long replay (the regime where
bounded-size digests beat raw shipping).  The five exact approaches
form the traffic frontier; one approximate lane per q-digest
resolution ``k`` answers the same queries from merged broker digests
pushed along reverse-ad-path trees.  Shape claims asserted here:

* the acceptance criterion: at the largest measured point, every
  approximate lane spends strictly fewer total message units than
  every exact approach — including centralized raw shipping;
* the certificate half: every approximate answer's observed error
  stays within the deterministic q-digest guarantee (zero bound
  violations at every measured point), so the traffic win carries a
  machine-checked accuracy contract rather than a hope.
"""

from repro.experiments import figures

from benchlib import render_and_record


def _split_lanes(result):
    exact, approx = {}, {}
    for name, values in result.series.items():
        (approx if name.startswith("Approximate lane") else exact)[name] = values
    return exact, approx


def test_figure_21_approximate_lanes_undercut_exact_frontier(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure_21, args=(scale,), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    exact, approx = _split_lanes(result)
    assert approx and exact
    # The acceptance criterion, at the end of the subscription axis:
    # every approximate lane strictly under every exact approach.
    for lane_name, lane in approx.items():
        for exact_name, frontier in exact.items():
            assert lane[-1] < frontier[-1], (lane_name, exact_name)


def test_figure_22_certified_error_within_guarantee(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure_22, args=(scale,), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    for k in figures.SKETCH_K_AXIS:
        runs = figures.scenario_series(
            figures.sketches_variant(k), scale
        ).results["fsf"]
        for run in runs:
            # Every measured point answered queries, and every
            # certificate held: observed error within the q-digest
            # bound, bracket containing the truth.
            assert run.approx.queries > 0, (k, run.n_subscriptions)
            assert run.approx.bound_violations == 0, (k, run.n_subscriptions)
    assert "0 violations" in result.notes
