"""tools/counts.py: the counted record, its gate and its committed file.

The full regeneration takes about half a minute (CI's ``counts`` job
runs it); here one smoke-size cell is counted, the gate is checked on
synthetic records, and the committed ``BENCH_counts.json`` is checked
to hold every benchmark cell.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "counts.py"


@pytest.fixture(scope="module")
def counts():
    spec = importlib.util.spec_from_file_location("counts_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(total=1000, sweeps=50, digest="d0"):
    cell = {
        "calls": {"create": 100, "submit": 200, "replay": total - 300, "total": total},
        "per_reading": {"total": total / 10},
        "layers": {"repro.core": 10, "python": total - 10},
        "sweeps": sweeps,
        "cover_decisions": 7,
        "digest": digest,
    }
    return {"python": "3.11.7", "workloads": {"w": {"readings": 10, "cells": {"fsf": cell}}}}


def test_a_rise_over_two_percent_fails_a_drop_passes(counts):
    old = record()
    moved, failed = counts.compare(old, record(total=1020))
    assert moved and not failed  # +2.0%: listed, within the bound
    moved, failed = counts.compare(old, record(total=1021))
    assert any("calls.total" in line for line in failed)
    moved, failed = counts.compare(old, record(total=700, sweeps=10))
    assert moved and not failed
    _, failed = counts.compare(old, record(sweeps=52))
    assert any("sweeps" in line for line in failed)
    _, failed = counts.compare(old, record(digest="d1"))
    assert any("digest" in line for line in failed)
    assert counts.compare(old, copy.deepcopy(old)) == ([], [])


def test_a_missing_cell_fails(counts):
    old, new = record(), record()
    new["workloads"]["w"]["cells"]["naive"] = new["workloads"]["w"]["cells"]["fsf"]
    _, failed = counts.compare(old, new)
    assert failed == ["w/naive: only in the new record"]


def test_one_cell_counted_by_phase_and_by_package(counts):
    """The smoke ``small_static`` point of the sweep fence, counted: the
    packages partition the calls, and the sweeps are the fence's pin."""
    from test_sweep_count_fence import PINNED, smoke_point

    compiled = smoke_point()
    counts.PhaseProfiles().run(compiled, "fsf")  # warm-up
    profiles = counts.PhaseProfiles()
    profiles.run(compiled, "fsf")
    tally = counts.tally(profiles, len(compiled.events))
    calls = tally["calls"]
    assert all(calls[phase] > 0 for phase in counts.PHASES)
    assert calls["total"] == sum(tally["layers"].values())
    assert tally["sweeps"] == PINNED["fsf"][0]
    assert tally["cover_decisions"] > 0
    assert tally["layers"]["repro.core"] > 0


def test_a_profile_hook_installed_before_a_run_is_back_after_it(
    counts, monkeypatch
):
    """cProfile's ``disable`` clears the interpreter's profile hook, so
    a caller's own hook (``tools/reach.py`` runs tier-1 under one) must
    be put back, on success and on failure alike."""
    import repro.workload.program as program

    def hook(frame, event, arg):
        pass

    monkeypatch.setattr(program, "execute_program", lambda compiled, cell: cell)
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        assert counts.PhaseProfiles().run(None, "fsf") == "fsf"
        assert sys.getprofile() is hook

        def failing(compiled, cell):
            raise RuntimeError(cell)

        monkeypatch.setattr(program, "execute_program", failing)
        with pytest.raises(RuntimeError):
            counts.PhaseProfiles().run(None, "fsf")
        assert sys.getprofile() is hook
    finally:
        sys.setprofile(previous)


def test_the_committed_record_holds_every_cell(counts):
    from e2e.workloads import WORKLOADS

    committed = json.loads((ROOT / "BENCH_counts.json").read_text())
    assert set(counts.environment()) <= set(committed)
    assert set(committed["workloads"]) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        cells = committed["workloads"][name]["cells"]
        assert set(cells) == set(workload.cells)
        for cell in cells.values():
            assert cell["calls"]["total"] == sum(cell["layers"].values())


def test_check_refuses_another_environment(counts, monkeypatch, capsys):
    """Library Python code is counted: another numpy or patch release
    may move the counts, so the check compares nothing across them."""
    committed = json.loads((ROOT / "BENCH_counts.json").read_text())
    other = {**counts.environment(), "python": committed["python"], "numpy": "0.0"}
    monkeypatch.setattr(counts, "environment", lambda: other)
    assert counts.main(["--check"]) == 1
    assert "not comparable" in capsys.readouterr().out
