"""Figures 17-18 — the unreliable-transport family (beyond the paper).

The small-scale deployment swept over per-link loss rates with the
reliability layer (acked control traffic + soft-state refresh) on and
off, all five approaches.  Shape claims asserted here:

* at zero loss every approach measures full recall in both modes —
  the fault lane and the refresh rounds perturb nothing by themselves;
* recall decays as loss grows: a complex match needs all of its
  participant events to survive independent multi-hop journeys;
* at 10% per-link loss, reliability-on recall strictly beats
  reliability-off for every approach (the acceptance criterion):
  protecting setup state alone recovers real recall, because a lost
  advertisement or operator poisons every later match while a lost
  event costs only itself;
* the reliability bill is real and loss-shaped: refresh units are a
  loss-independent floor, retransmissions grow with the drop rate.
"""

from repro.experiments import figures

from benchlib import render_and_record


def test_figure_17_recall_vs_loss(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("17", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    assert result.xs[0] == 0.0 and result.xs[-1] == 0.1
    for key, label in figures.APPROACH_LABELS.items():
        reliable = result.series[f"{label} (reliable)"]
        best_effort = result.series[f"{label} (no reliability)"]
        # Clean zero-loss baseline in both modes.
        assert reliable[0] == 100.0, key
        assert best_effort[0] == 100.0, key
        # The acceptance criterion, at the endpoint of the loss axis.
        assert reliable[-1] > best_effort[-1], (key, reliable, best_effort)
        # Loss genuinely hurts: the endpoint sits below the baseline.
        assert reliable[-1] < reliable[0], key


def test_figure_18_reliability_overhead_vs_loss(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("18", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    for key, label in figures.APPROACH_LABELS.items():
        refresh = result.series[f"{label} - refresh"]
        retransmit = result.series[f"{label} - retransmit"]
        # The refresh floor is paid even on a perfect network...
        assert all(v > 0 for v in refresh), key
        # ...while retransmissions are loss-triggered: none at zero
        # loss, some at the lossy end of the axis.
        assert retransmit[0] == 0.0, key
        assert retransmit[-1] > 0.0, key
