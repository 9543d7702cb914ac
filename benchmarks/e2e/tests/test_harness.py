"""Self-tests of the benchmark harness (not collected by tier-1).

    python -m pytest benchmarks/e2e/tests -q

They run the ``--smoke`` sizes, so they check the harness — that every
metric is produced, that simulated numbers repeat, that spans nest,
that wrappers come off, that a wrong answer fails the run — never the
speed of the system.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from e2e import compare, layers, measure, run, trace
from e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("total_units", "event_units", "recall", "precision")


def _run(*argv: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done, time.perf_counter() - start


def _contract_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _smoke(name: str, seed: int = 0) -> dict:
    return measure.run_end_to_end(
        WORKLOADS[name], seed, seconds=0.0, smoke=True
    )


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind,flag", [("end_to_end", "0"), ("per_layer", "1")])
def test_smoke_prints_every_metric_with_its_unit(tmp_path, kind, flag):
    out = tmp_path / "smoke.json"
    done, elapsed = _run("--smoke", "--trace", flag, "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 20.0
    blocks = done.stdout.split("== ")[1:]
    assert [b.split()[0] for b in blocks] == [w["name"] for w in CONTRACT["workloads"]]
    for block in blocks:
        for metric in CONTRACT[kind]:
            row = next(l for l in block.splitlines() if l.split()[:1] == [metric["name"]])
            assert f" {metric['unit']}" in row or " null" in row, row
    lines = _contract_lines(done.stdout)
    assert len(lines) == len(CONTRACT["workloads"])
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in CONTRACT[kind]]
        for metric in CONTRACT[kind]:
            entry = line["metrics"][metric["name"]]
            assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    document = json.loads(out.read_text())
    assert document["provenance"]["nproc"] >= 1
    assert set(document["runs"][0]["workloads"]) == set(WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "small_static",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not _contract_lines(done.stdout)


def test_baseline_is_refused_from_a_dirty_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "provenance", lambda: {"commit": "abc", "dirty": True})
    target = tmp_path / "baseline.json"
    assert run.main(["--smoke", "--baseline", str(target)]) == 2
    assert not target.exists()


# ---------------------------------------------------------------------------
# determinism and correctness checks
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_simulated_metrics_repeat_per_seed_and_move_with_it(name):
    first, again, other = _smoke(name), _smoke(name), _smoke(name, seed=1)
    assert first["correct"] and again["correct"] and other["correct"]
    for metric in EXACT:
        assert first["metrics"][metric]["value"] == again["metrics"][metric]["value"]
    digests = lambda r: {c: v["digest"] for c, v in r["per_cell"].items()}
    assert digests(first) == digests(again)
    assert digests(first) != digests(other)


def test_a_corrupted_delivery_log_fails_the_run(monkeypatch, capsys):
    from repro.network import DeliveryLog

    monkeypatch.setattr(DeliveryLog, "record_events", lambda self, sub_id, events: None)
    status = run.main(["--child", "--workload", "small_static", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["ops_failed"] > 0
    assert any("recall" in failure for failure in result["failures"])


def test_a_raising_cell_is_a_failed_operation(monkeypatch):
    from repro.api import Session

    def boom(self, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(Session, "drain", boom)
    result = _smoke("shared_templates")
    assert result["correct"] is False
    assert result["ops_failed"] == result["ops_attempted"]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    result = layers.run_traced(WORKLOADS["lifecycle_churn"], 0, True, out)
    return result, json.loads(Path(result["trace_file"]).read_text())


def test_traced_run_names_every_layer_metric(traced):
    result, _ = traced
    assert result["correct"], result["failures"]
    assert set(result["layers"]) == {m["name"] for m in CONTRACT["per_layer"]}
    for name, value in result["layers"].items():
        assert value is not None or result["unavailable"][name], name
    assert result["layers"]["host.trace_overhead_ratio"] > 1.0
    assert result["layers"]["node.unsubscribe_self_s"] > 0.0


def test_span_trees_are_well_formed(traced):
    _, document = traced
    spans = document["spans"]
    assert document["spans_kept"] == len(spans) == document["spans_total"]
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        assert end >= start
        if parent >= 0:
            assert parent < len(spans)
            _, p_start, p_end, _, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
            children[parent] += end - start
    self_times = [end - start - inside for (_, start, end, _, _), inside in zip(spans, children)]
    assert min(self_times) > -1e-6
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    assert sum(self_times) == pytest.approx(roots, rel=0.02)
    assert sum(t["self_s"] for t in document["totals"].values()) == pytest.approx(roots, rel=0.02)


def test_work_caused_by_one_reading_shares_its_id(traced):
    _, document = traced
    spans = document["spans"]
    receives = [s for s in spans if s[0] == "node.receive" and isinstance(s[4], list)]
    assert receives, "no receive carries a reading's key"
    for name, _, _, parent, cid in receives[:200]:
        while parent >= 0 and spans[parent][0] != "sim.run":
            assert spans[parent][4] == cid, (name, spans[parent][0])
            parent = spans[parent][3]
    queries = {s[4] for s in spans if s[0] == "node.handle_unsubscribe"}
    assert queries and all(isinstance(q, str) for q in queries)


def test_span_cap_keeps_parents(monkeypatch, tmp_path):
    monkeypatch.setattr(trace, "MAX_SPANS", 500)
    result = layers.run_traced(WORKLOADS["shared_templates"], 0, True, tmp_path)
    document = json.loads(Path(result["trace_file"]).read_text())
    assert document["spans_kept"] == 500 < document["spans_total"]
    assert all(-1 <= parent < 500 for _, _, _, parent, _ in document["spans"])


def test_wrappers_are_gone_after_a_traced_run(traced):
    assert trace.still_wrapped() == []
    with trace.PhaseClock(), trace.Tracer():
        assert "Session.submit" in trace.still_wrapped()
        assert "NaiveNode.handle_event" in trace.still_wrapped()
    assert trace.still_wrapped() == []


def test_a_deleted_target_reads_null_with_a_reason(monkeypatch):
    gone = ("matching.probe", "repro.matching:DeletedEngine.matches_involving", "truthy")
    monkeypatch.setattr(trace, "TARGETS", (gone, ("x.gone", "repro.nowhere:A.b", "span")))
    with trace.Tracer() as tracer:
        pass
    assert tracer.calls("matching.probe") is None
    assert "DeletedEngine" in tracer.why_missing("matching.probe")
    assert "cannot import" in tracer.why_missing("x.gone")

    def execute_program(compiled, approach):  # the signature after the collapse
        raise AssertionError("never called")

    monkeypatch.setattr(layers, "execute_program", execute_program)
    prepared = measure.prepare(WORKLOADS["small_static"], 0, True)
    for value, reason in layers.engine_sweep(prepared).values():
        assert value is None and "matching=" in reason


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------
def test_compare_passes_a_file_against_itself_and_flags_a_slowdown(tmp_path, capsys):
    document = {
        "runs": [
            {"seed": seed, "workloads": {name: _smoke(name, seed) for name in ("small_static",)}}
            for seed in (0, 1, 2)
        ]
    }
    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "point_cpu_s")
    slower = copy.deepcopy(document)
    for entry in slower["runs"]:
        metrics = entry["workloads"]["small_static"]["metrics"]
        for key in ("value", "q1", "q3"):
            metrics["point_cpu_s"][key] *= 1.1 + bound
    same, slow = tmp_path / "a.json", tmp_path / "b.json"
    same.write_text(json.dumps(document))
    slow.write_text(json.dumps(slower))

    assert compare.main([str(same), str(same)]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([str(same), str(slow)]) == 1
    rows = capsys.readouterr().out.splitlines()
    flagged = [r for r in rows if "regressed" in r]
    assert len(flagged) == 1 and "point_cpu_s" in flagged[0]
    assert f"{0.1 + bound:+.2%}" in flagged[0]

    lossy = copy.deepcopy(document)
    lossy["runs"][1]["workloads"]["small_static"]["metrics"]["recall"]["value"] *= 0.999
    lossy["runs"][1]["workloads"]["small_static"]["answers_missed"] += 1
    worse = tmp_path / "c.json"
    worse.write_text(json.dumps(lossy))
    assert compare.main([str(same), str(worse)]) == 1
    out = capsys.readouterr().out
    assert "LARGER" in out and any("recall" in r and "regressed" in r for r in out.splitlines())
