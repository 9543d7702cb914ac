"""Figures 15-16 — the query admit/retire family (beyond the paper).

The small-scale deployment under a two-day replay while queries keep
arriving (Poisson) and retiring (exponential holds), swept over the
admit rate, all five approaches.  Shape claims asserted here:

* the oracle fences every query's truth to its scheduled lifetime, so
  steady-state recall stays high: the deterministic approaches lose
  only the admission-lag / retirement-edge races (hops x latency
  slivers), FSF additionally what its per-slot cover rule loses;
* teardown traffic is genuinely measured and reported **separately**
  from registration traffic — the `UnsubscribeMessage` channel the
  lifecycle API added is visible at figure scale;
* more admissions cost more lifecycle traffic: the registration +
  teardown bill grows with the admit rate.
"""

from repro.experiments import figures

from benchlib import render_and_record


def test_figure_15_recall_under_admit_retire(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure_15, args=(scale,), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    for key in ("centralized", "naive", "operator_placement", "multijoin"):
        # Not a hard 100: a trigger published while the registration
        # flood is still placing the operator (admission lag) or just
        # before the teardown lands (retirement edge) can be missed —
        # both are hops x latency windows inside delta_t.
        assert all(v >= 90.0 for v in result.series[key]), key
    assert all(v >= 80.0 for v in result.series["fsf"])


def test_figure_16_traffic_split_under_admit_retire(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure_16, args=(scale,), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    for rate_idx in range(len(figures.ADMIT_RATE_AXIS)):
        for key, label in figures.APPROACH_LABELS.items():
            # Teardown happened everywhere, and is reported separately
            # from (and below) the registration lane.
            teardown = result.series[f"{label} - teardown"][rate_idx]
            registration = result.series[f"{label} - registration"][rate_idx]
            assert teardown > 0, (key, rate_idx)
            assert registration > teardown, (key, rate_idx)
    for key, label in figures.APPROACH_LABELS.items():
        lifecycle_bill = [
            result.series[f"{label} - registration"][i]
            + result.series[f"{label} - teardown"][i]
            for i in range(len(figures.ADMIT_RATE_AXIS))
        ]
        assert lifecycle_bill == sorted(lifecycle_bill), key
