"""Figures 19-20 — the placement-compiler family (beyond the paper).

The tiered small-scale deployment (motes at the edge, base-station
group heads, a cloud uplink on the backbone) under a skewed
cross-group workload: every query correlates a wide-filter group — a
partial-match flood — with a narrow one.  Two lanes per approach: the
paper heuristic (split at the natural divergence node) vs the
cost-model placement compiler (split delayed toward the flooding
group's head).  Shape claims asserted here:

* the acceptance criterion: at the largest measured point, the
  compiled lane's *total* message units strictly undercut the paper
  heuristic's for every approach in the family;
* the safety half: every lane — both modes, every approach — holds
  100% recall (FSF's per-slot cover rule loses nothing on this
  workload), so the traffic win is free of result loss.
"""

from repro.experiments import figures

from benchlib import render_and_record


def _family_labels(result):
    labels = set()
    for name in result.series:
        label, _, mode = name.rpartition(" (")
        labels.add(label)
    return sorted(labels)


def test_figure_19_total_traffic_compiled_vs_paper(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("19", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    for label in _family_labels(result):
        paper = result.series[f"{label} (paper)"]
        compiled = result.series[f"{label} (compiled)"]
        # The acceptance criterion, at the end of the query axis.
        assert compiled[-1] < paper[-1], (label, compiled, paper)


def test_figure_20_recall_compiled_vs_paper(benchmark, scale):
    result = benchmark.pedantic(
        figures.figure, args=("20", scale), rounds=1, iterations=1
    )
    render_and_record(benchmark, result)
    for name, lane in result.series.items():
        assert all(v == 100.0 for v in lane), (name, lane)
