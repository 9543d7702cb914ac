"""Tests for the experiment harness: runner, figures, tables, CLI."""

import pytest

from repro.experiments import figures
from repro.experiments.cli import main as cli_main
from repro.experiments.runner import REPLAY_START, RunResult, run_series
from repro.experiments.tables import (
    fig3_deployment,
    render_table_2,
    render_table_i,
    run_fig3_walkthrough,
    table_i_subscriptions,
)
from repro.metrics.approx import ApproxReport
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
        """Registering a figure is sufficient to make it a CLI target.

        The choices list is derived from ``ALL_FIGURES`` at parse time,
        so the catalog can never drift ahead of the CLI again (fig21/22
        were the near-miss that motivated this).
        """
        stub = lambda scale=None: figures.FigureResult(  # noqa: E731
            "98", "stub", "x", (1,), {"fsf": (0.0,)}
        )
        monkeypatch.setitem(figures.ALL_FIGURES, "98", stub)
        assert cli_main(["fig98"]) == 0
        assert "Figure 98" in capsys.readouterr().out

    def test_family_flag_gates_the_bulk_targets(self, capsys, monkeypatch):
        """One repeatable ``--family`` selects which beyond-paper
        figures ``all`` renders; the five per-family flags are gone."""

        def stub(fig_id):
            return lambda scale=None: figures.FigureResult(
                fig_id, "stub", "x", (1,), {"fsf": (0.0,)}
            )

        monkeypatch.setattr(
            figures, "ALL_FIGURES", {i: stub(i) for i in ("4", "13", "17", "21")}
        )
        assert cli_main(["all", "--family", "faults", "--family", "sketches"]) == 0
        out = capsys.readouterr().out
        assert all(f"Figure {i}:" in out for i in ("4", "17", "21"))
        assert "Figure 13:" not in out
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
        assert sorted(figures.ALL_FIGURES, key=int) == [
            "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14",
            "15", "16", "17", "18", "19", "20", "21", "22",
        ]
        # The beyond-paper families are gated behind --family for the
        # bulk targets.
        assert {
            name: family.figures for name, family in figures.FIGURE_FAMILIES.items()
        } == {
            "churn": ("13", "14"),
            "admit_retire": ("15", "16"),
            "faults": ("17", "18"),
            "placement": ("19", "20"),
            "sketches": ("21", "22"),
        }
        assert set(figures.BEYOND_PAPER_FIGURES) == {
            "13", "14", "15", "16", "17", "18", "19", "20", "21", "22",
        }
        # Every beyond-paper figure documents its CLI gate (--list).
        assert set(figures.FIGURE_GATES) == set(figures.BEYOND_PAPER_FIGURES)

    def test_catalog_covers_every_figure(self):
        """The anti-drift contract: every registered figure has a
        scenario blurb, and every beyond-paper figure names its gate
        flag — a figure can't be registered but undiscoverable."""
        assert set(figures.FIGURE_SCENARIOS) == set(figures.ALL_FIGURES)
        catalog = figures.render_catalog()
        for fig_id in figures.ALL_FIGURES:
            assert f"fig{fig_id}:" in catalog
        for fig_id, gate in figures.FIGURE_GATES.items():
            assert gate.startswith("--family ")

    def test_family_selection_for_the_bulk_targets(self):
        paper = [str(i) for i in range(4, 13)]
        assert figures.selected_figures() == paper
        assert figures.selected_figures(["faults", "sketches"]) == paper + [
            "17", "18", "21", "22",
        ]
        assert figures.selected_figures(["beyond"]) == sorted(
            figures.ALL_FIGURES, key=int
        )
        with pytest.raises(ValueError, match="unknown figure families"):
            figures.selected_figures(["approx"])

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
            approx=ApproxReport(()),
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
