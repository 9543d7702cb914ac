"""Tests for the experiment harness: runner, figures, tables, CLI."""

import pytest

from repro.experiments import figures
from repro.experiments.cli import main as cli_main
from repro.experiments.experiments_md import build_experiments_md
from repro.experiments.runner import REPLAY_START, RunResult, run_series
from repro.experiments.tables import (
    fig3_deployment,
    render_table_2,
    render_table_i,
    run_fig3_walkthrough,
    table_i_subscriptions,
)
from repro.metrics.recall import RecallReport
from repro.network.links import TrafficSnapshot
from repro.protocols.registry import (
    all_approaches,
    distributed_approaches,
    table_ii,
)
from repro.workload.scenarios import SMALL, Scenario
from repro.network.topology import build_deployment


@pytest.fixture(scope="module")
def tiny_scenario():
    return Scenario(
        key="tiny",
        title="tiny",
        deployment_factory=lambda seed: build_deployment(24, 3, seed=seed),
        paper_subscription_counts=(60, 120),
        attrs_min=3,
        attrs_max=5,
    )


def stub_spec(fig_id, family=None, headline=None):
    """A figure spec that runs nothing: FSF at half of operator
    placement's subscription load."""
    return figures.FigureSpec(
        fig_id,
        "stub",
        "x",
        f"stub-{fig_id}",
        lambda scale: None,
        lambda runs: ((1,), {"fsf": (1.0,), "operator_placement": (2.0,)}, ""),
        f"claim {fig_id}",
        family=family,
        metric="subscription" if headline else None,
        headline=headline,
    )


def stub_table():
    return {
        "4": stub_spec("4", headline=("stub row 4", "10-20%")),
        "13": stub_spec("13", "churn"),
        "17": stub_spec("17", "faults"),
        "19": stub_spec("19", "placement"),
    }


class TestRunner:
    def test_series_shape(self, tiny_scenario):
        series = run_series(tiny_scenario, distributed_approaches(), scale=0.1)
        assert series.counts == [6, 12]
        for key, runs in series.results.items():
            assert [r.n_subscriptions for r in runs] == [6, 12]
            assert all(r.approach == key for r in runs)

    def test_loads_monotone_in_subscriptions(self, tiny_scenario):
        series = run_series(tiny_scenario, distributed_approaches(), scale=0.1)
        for key, runs in series.results.items():
            loads = [r.after_setup.subscription_units for r in runs]
            assert loads[0] <= loads[1], key

    def test_recall_series_accessor(self, tiny_scenario):
        series = run_series(tiny_scenario, distributed_approaches(), scale=0.1)
        recalls = series.recall_series("fsf")
        assert len(recalls) == 2 and all(0.0 <= r <= 1.0 for r in recalls)


class TestTables:
    def test_table_i_text(self):
        text = render_table_i()
        assert "50 < a < 80" in text and "5 < c < 15" in text

    def test_table_i_subscriptions_structure(self):
        subs = table_i_subscriptions()
        assert [s.sub_id for s in subs] == ["s1", "s2", "s3"]
        assert subs[2].sensor_ids == {"a", "b", "c"}

    def test_table_ii_rows(self):
        rows = table_ii()
        assert len(rows) == 5
        names = [r[0] for r in rows]
        assert "Filter-Split-Forward" in names and "Centralized" in names
        fsf = next(r for r in rows if r[0] == "Filter-Split-Forward")
        assert fsf[1] == "Set filtering"
        assert fsf[2] == "Simple"
        assert fsf[3] == "Per neighbor"
        assert "Set filtering" in render_table_2()

    def test_fig3_deployment_is_paper_topology(self):
        dep = fig3_deployment()
        assert dep.n_nodes == 6
        assert sorted(s.sensor_id for s in dep.sensors) == ["a", "b", "c"]
        dep.validate()

    def test_fig3_walkthrough_filters_s3(self):
        w = run_fig3_walkthrough()
        assert any("s3" in op for op in w.covered["n6"])
        assert w.subscription_units == 8


class TestCli:
    def test_table_targets(self, capsys):
        assert cli_main(["table1"]) == 0
        assert "Sensor a" in capsys.readouterr().out
        assert cli_main(["table2"]) == 0
        assert "Filter-Split-Forward" in capsys.readouterr().out

    def test_fig3_target(self, capsys):
        assert cli_main(["fig3"]) == 0
        assert "n6" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert cli_main(["table2", "--output", str(out)]) == 0
        assert "Set filtering" in out.read_text()

    def test_invalid_target_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])

    def test_churn_figure_target(self, capsys):
        figures.clear_cache()
        try:
            assert cli_main(["fig13", "--scale", "0.05"]) == 0
            out = capsys.readouterr().out
            assert "Event load under churn" in out
            # The satellite contract: accounting includes re-flood traffic.
            assert "reflood units" in out
            assert cli_main(["fig14", "--scale", "0.05"]) == 0
            assert "recall" in capsys.readouterr().out
        finally:
            figures.clear_cache()

    def test_list_target(self, capsys):
        """--list enumerates families, figures and presets without
        running anything (the discoverability satellite)."""
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "Scenario families" in out
        for key in ("small", "medium", "large_network", "large_sources",
                    "churn", "admit_retire"):
            assert f"\n{key}: " in out or out.startswith(f"{key}: ")
        assert "fig15" in out and "fig16" in out
        assert "query lifecycle" in out
        assert "Scale presets" in out and "smoke" in out and "nightly" in out

    def test_no_target_rejected_without_list(self):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_cli_choices_track_figure_registry(self, capsys, monkeypatch):
        """A spec in ``figures.FIGURES`` is sufficient to make it a CLI
        target: the choices are derived from the table at parse time,
        so the catalog can never drift ahead of the CLI again."""
        monkeypatch.setitem(figures.FIGURES, "98", stub_spec("98"))
        assert cli_main(["fig98"]) == 0
        assert "Figure 98" in capsys.readouterr().out

    def test_family_flag_gates_the_bulk_targets(self, capsys, monkeypatch):
        """One repeatable ``--family`` selects which beyond-paper
        figures ``all`` renders; the five per-family flags are gone."""
        monkeypatch.setattr(figures, "FIGURES", stub_table())
        assert cli_main(["all", "--family", "faults", "--family", "placement"]) == 0
        out = capsys.readouterr().out
        assert all(f"Figure {i}:" in out for i in ("4", "17", "19"))
        assert "Figure 13:" not in out
        assert "Sensor a" in out and "Set filtering" in out  # table1, table2
        for gone in ("--churn", "--beyond", "--faults", "--placement", "--approx"):
            with pytest.raises(SystemExit):
                cli_main(["all", gone])

    def test_admit_retire_figure_targets(self, capsys, monkeypatch):
        """fig15/fig16 render at smoke scale with teardown traffic
        reported separately from registration (one admit rate here;
        the full sweep runs in the admit-retire-smoke CI job)."""
        monkeypatch.setattr(figures, "ADMIT_RATE_AXIS", (0.05,))
        figures.clear_cache()
        try:
            assert cli_main(["fig15", "--scale", "0.05"]) == 0
            out = capsys.readouterr().out
            assert "Steady-state recall" in out
            assert "retired" in out
            assert cli_main(["fig16", "--scale", "0.05"]) == 0
            out = capsys.readouterr().out
            assert "Traffic split" in out
            assert "- teardown" in out and "- registration" in out
            assert "metered" in out
        finally:
            figures.clear_cache()


class TestFigureHarness:
    def test_all_figures_registered(self):
        assert list(figures.FIGURES) == [
            "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14",
            "15", "16", "17", "18", "19", "20",
        ]
        assert all(
            fig_id == spec.fig_id for fig_id, spec in figures.FIGURES.items()
        )
        # The beyond-paper families are gated behind --family for the
        # bulk targets.
        beyond: dict[str, list[str]] = {}
        for fig_id, spec in figures.FIGURES.items():
            if spec.family is not None:
                beyond.setdefault(spec.family, []).append(fig_id)
        assert beyond == {
            "churn": ["13", "14"],
            "admit_retire": ["15", "16"],
            "faults": ["17", "18"],
            "placement": ["19", "20"],
        }
        assert figures.family_names() == list(beyond)
        # Figs 4-7 carry the headline margins, each with its load metric.
        assert [
            fig_id for fig_id, spec in figures.FIGURES.items() if spec.headline
        ] == ["4", "5", "6", "7"]
        assert all(
            figures.FIGURES[i].metric in figures.RIVALS for i in ("4", "5", "6", "7")
        )

    def test_catalog_covers_every_figure(self):
        """The anti-drift contract: every spec has a scenario blurb and
        a catalog line, and every beyond-paper figure names its gate
        flag — a figure can't be in the table but undiscoverable."""
        catalog = figures.render_catalog()
        for fig_id, spec in figures.FIGURES.items():
            assert spec.scenario and spec.claim
            assert f"fig{fig_id}: scenario {spec.scenario}" in catalog
            if spec.family is not None:
                assert f"gate: --family {spec.family} (or --family beyond)" in catalog

    def test_catalog_reads_stub_specs(self, monkeypatch):
        monkeypatch.setattr(figures, "FIGURES", stub_table())
        lines = figures.render_catalog().splitlines()
        figs = [line for line in lines if line.startswith("fig")]
        assert figs == [
            "fig4: scenario stub-4",
            "fig13: scenario stub-13 [beyond the paper; gate: --family "
            "churn (or --family beyond)]",
            "fig17: scenario stub-17 [beyond the paper; gate: --family "
            "faults (or --family beyond)]",
            "fig19: scenario stub-19 [beyond the paper; gate: --family "
            "placement (or --family beyond)]",
        ]

    def test_family_selection_for_the_bulk_targets(self):
        paper = [str(i) for i in range(4, 13)]
        assert figures.selected_figures() == paper
        assert figures.selected_figures(["faults", "placement"]) == paper + [
            "17", "18", "19", "20",
        ]
        assert figures.selected_figures(["beyond"]) == list(figures.FIGURES)
        with pytest.raises(ValueError, match="unknown figure families"):
            figures.selected_figures(["sketches"])

    def test_experiments_md_reads_the_specs(self, monkeypatch):
        """Each selected figure's section quotes its spec's claim, and
        the headline table has one row per spec with a headline."""
        monkeypatch.setattr(figures, "FIGURES", stub_table())
        text = build_experiments_md(0.1, families=["faults"])
        for fig_id in ("4", "17"):
            assert f"## Figure {fig_id}\n\nPaper: claim {fig_id}\n" in text
        assert "## Figure 13" not in text and "claim 13" not in text
        # The beyond-paper record says which figures were retired.
        assert "## Figures 21-22 (retired)" in text
        rows = [line for line in text.splitlines() if line.startswith("| stub")]
        assert rows == ["| stub row 4 | 10-20% | 50.0% .. 50.0% (mean 50.0%) |"]

    def test_figure_result_render(self):
        result = figures.FigureResult(
            "99", "demo", "x", (1, 2), {"fsf": (1.0, 2.0)}, notes="n"
        )
        text = result.render()
        assert "Figure 99" in text and "Filter-Split-Forward" in text and "n" in text

    def test_total_units_sums_each_channel_once(self):
        """Resends and refresh copies are subsets of the channel columns
        (``TrafficMeter.record`` bills them to their channels too), so
        they never add to a run's total."""
        run = RunResult(
            approach="fsf",
            n_subscriptions=1,
            retired_queries=0,
            dropped_subscriptions=0,
            complex_deliveries=0,
            sim_events=0,
            after_advertisements=TrafficSnapshot(0, 0, 30, 30),
            after_setup=TrafficSnapshot(10, 0, 30, 40),
            final=TrafficSnapshot(
                subscription_units=21,
                event_units=20,
                advertisement_units=34,
                messages=75,
                teardown_units=6,
                retransmission_units=7,
                refresh_units=8,
            ),
            accuracy=RecallReport(0, 0, 0, 0),
        )
        assert figures._total_units(run) == 75.0

    def test_scenario_series_cached(self, tiny_scenario, monkeypatch):
        figures.clear_cache()
        calls = []
        real = figures.run_series

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(figures, "run_series", spy)
        figures.scenario_series(tiny_scenario, scale=0.1)
        figures.scenario_series(tiny_scenario, scale=0.1)
        assert len(calls) == 1
        figures.clear_cache()
