"""The traced run: per-layer metrics of one workload.

Order of work: set up once, one untimed warm-up repetition per cell,
one *reference* repetition without the tracer (phase timings, GC time,
the denominator of the tracing overhead), one repetition with the
tracer installed, then the stand-alone probes (one replay per matching
engine, a profiled replay for the call count, the approximate-lane and
placement-compiler probes).  Every traced cell run must produce the
digest of its untraced run: the wrappers may cost time, never
behaviour.

Each metric in :func:`layer_metrics` is a number, or ``None`` with a
reason when what it measures no longer exists.
"""

from __future__ import annotations

import cProfile
import gc
import inspect
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.workload.program import execute_program

from .clock import now
from .measure import CellRun, Prepared, percentile, prepare, run_round
from .trace import PhaseClock, Tracer, still_wrapped
from .workloads import ALL_FIVE, Workload

ENGINES = ("incremental", "columnar")
SKETCH_PROBE_SUBSCRIPTIONS = (100, 12)  # full / --smoke
PLACEMENT_PROBE_SUBSCRIPTIONS = (100, 12)

Metric = tuple[float | None, str]
"""(value, reason when the value is None)."""


class GcWatch:
    """Time and count the cyclic collections inside its ``with`` blocks
    (re-enterable: the totals accumulate)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = now()
        else:
            self.seconds += now() - self._started
            self.collections += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)


# ---------------------------------------------------------------------------
# stand-alone probes
# ---------------------------------------------------------------------------
def engine_sweep(prepared: Prepared) -> dict[str, Metric]:
    """Replay throughput of the workload's first cell under each engine
    the installed ``execute_program`` still accepts."""
    cell = prepared.workload.cells[0]
    out: dict[str, Metric] = {}
    accepts = "matching" in inspect.signature(execute_program).parameters
    for engine in ENGINES:
        name = f"matching.{engine}.replay_readings_per_s"
        if not accepts:
            out[name] = (None, "execute_program takes no matching= any more")
            continue
        gc.collect()
        with PhaseClock() as clock:
            try:
                execute_program(prepared.compiled, cell, matching=engine)
            except (ValueError, TypeError) as exc:
                out[name] = (None, f"engine refused: {exc}")
                continue
        out[name] = (prepared.readings / clock.replay_s, "")
    return out


def py_calls_per_reading(prepared: Prepared) -> Metric:
    """Python-level calls per replayed reading in the first cell: the
    noise-free proxy for the interpreter floor.  ``cProfile`` is the
    C-level ``sys.setprofile`` hook; only the count is read."""
    gc.collect()
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        execute_program(prepared.compiled, prepared.workload.cells[0])
    finally:
        profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    return (calls / prepared.readings, "")


def sketch_probe(smoke: bool) -> dict[str, Metric]:
    """An approximate-mode fsf session on the ``SKETCHES`` scenario."""
    names = (
        "sketches.push_round_ms",
        "sketches.replay_readings_per_s",
        "sketches.bound_violations",
    )
    try:
        from repro.metrics.approx import churn_fences, measure_approx
        from repro.workload import scenarios

        scenario = replace(scenarios.SKETCHES, answer_mode="approximate")
        if smoke:
            scenario = replace(scenario, replay=replace(scenario.replay, rounds=12))
        deployment = scenario.deployment()
        compiled = scenario.program(SKETCH_PROBE_SUBSCRIPTIONS[smoke]).compile(deployment)
        gc.collect()
        with PhaseClock() as clock, Tracer() as tracer:
            execution = execute_program(compiled, "fsf")
        network = execution.session.network
        report = measure_approx(network, compiled.events, churn_fences(compiled.churn))
    except (ImportError, AttributeError, ValueError, TypeError) as exc:
        return {name: (None, f"approximate lane unavailable: {exc!r}") for name in names}
    ticks = tracer.calls("sketches.begin_round")
    push_s = sum(
        tracer.totals[n][1]
        for n in ("sketches.begin_round", "sketches.handle_push")
        if n in tracer.totals
    )
    rounds = ticks / len(network.nodes) if ticks else 0
    return {
        names[0]: (push_s / rounds * 1e3, "")
        if rounds
        else (None, tracer.why_missing("sketches.begin_round")),
        names[1]: (len(compiled.events) / clock.replay_s, ""),
        names[2]: (float(report.bound_violations), ""),
    }


def placement_probe(smoke: bool) -> Metric:
    """``WorkloadProgram(placement="compiled").compile`` on ``PLACEMENT``."""
    try:
        from repro.workload import scenarios

        scenario = replace(scenarios.PLACEMENT, placement="compiled")
        deployment = scenario.deployment()
        program = scenario.program(PLACEMENT_PROBE_SUBSCRIPTIONS[smoke])
        source = program.source(deployment)
        gc.collect()
        start = now()
        compiled = program.compile(deployment, source)
        elapsed = now() - start
    except (ImportError, AttributeError, ValueError, TypeError) as exc:
        return (None, f"placement compiler unavailable: {exc!r}")
    return (elapsed / len(compiled.admissions) * 1e3, "")


# ---------------------------------------------------------------------------
# tracer aggregates -> named metrics
# ---------------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    prepared: Prepared,
    reference: list[CellRun],
    traced: list[CellRun],
    watch: GcWatch,
) -> dict[str, Metric]:
    """Every per-layer metric that comes from the workload's own cells.

    Times and counts are sums over the cells of one repetition.  Times
    are plain CPU seconds, not rescaled to the reference speed like the
    end-to-end ones: read them as shares of each other, and compare
    counts between commits.
    """
    readings = prepared.readings * len(traced)

    def self_s(*names: str) -> Metric:
        value = tracer.self_s(*names)
        return (value, "" if value is not None else tracer.why_missing(*names))

    def cells_s(runs: list[CellRun], attr: str) -> float:
        return sum(getattr(run, attr) for run in runs)

    def calls(*names: str) -> Metric:
        value = tracer.calls(*names)
        return (
            (float(value), "") if value is not None else (None, tracer.why_missing(*names))
        )

    def ratio(kind: str, name: str) -> Metric:
        """Share of the calls that counted as ``kind`` (see trace.TARGETS)."""
        total = tracer.calls(name)
        if total is None:
            return (None, tracer.why_missing(name))
        return (tracer.counters[f"{name}.{kind}"] / total if total else 0.0, "")

    latencies = sorted(tracer.latencies)

    def latency(q: float) -> Metric:
        if not latencies:
            if tracer.calls("delivery.record") is None:
                return (None, tracer.why_missing("delivery.record"))
            return (None, "no delivery was recorded")
        return (percentile(latencies, q), "")

    def total(attr: str) -> Metric:
        return (float(sum(getattr(run.final, attr, 0) for run in traced)), "")

    transport_actions = sum(t[2] for _, t in tracer.actions("Transport."))
    transport = self_s("reliability.transport")
    agenda = tracer.calls("sim.at")
    forward = ("node.pubsub_forward", "node.stream_forward")
    sends = calls("node.send_event")
    out: dict[str, Metric] = {
        "sim.run_self_s": self_s("sim.run"),
        "sim.at_self_s": self_s("sim.at"),
        "sim.agenda_entries": calls("sim.at"),
        "sim.processed_events": (float(sum(run.sim_events for run in traced)), ""),
        "network.send_self_s": self_s("network.send"),
        "network.send_calls": calls("network.send"),
        "network.unicast_calls": calls("network.unicast"),
        "links.record_self_s": self_s("links.record"),
        "links.record_calls": calls("links.record"),
        "eventstore.add_self_s": self_s("eventstore.add"),
        "eventstore.add_calls": calls("eventstore.add"),
        "eventstore.accept_ratio": ratio("truthy", "eventstore.add"),
        "eventstore.prune_self_s": self_s("eventstore.prune"),
        "node.receive_self_s": self_s("node.receive", "node.handle_event"),
        "node.forward_self_s": self_s(*forward),
        "node.forward_calls": calls(*forward),
        "node.deliver_self_s": self_s("node.deliver"),
        "node.fanout_per_reading": (
            (sends[0] / readings, "") if sends[0] is not None else sends
        ),
        "node.subscribe_self_s": self_s(
            "node.subscribe", "node.handle_operator", "node.split_targets",
            "network.register",
        ),
        "node.unsubscribe_self_s": self_s(
            "node.unsubscribe", "node.handle_unsubscribe", "network.cancel"
        ),
        "node.advertise_self_s": self_s(
            "node.handle_advertisement", "node.handle_retraction",
            "node.handle_refresh_advertisement", "node.refresh_soft_state",
            "node.attach_sensor", "node.detach_sensor",
        ),
        "matching.probe_self_s": self_s("matching.probe"),
        "matching.probes": calls("matching.probe"),
        "matching.hit_ratio": ratio("truthy", "matching.probe"),
        "matching.ingest_self_s": self_s("matching.ingest"),
        "matching.register_self_s": self_s("matching.register"),
        "subsumption.decide_self_s": self_s("subsumption.decide"),
        "subsumption.decide_calls": calls("subsumption.decide"),
        "subsumption.covered_ratio": ratio("covered", "subsumption.decide"),
        "delivery.record_self_s": self_s("delivery.record"),
        "delivery.record_calls": calls("delivery.record"),
        "delivery.detect_latency_sim_p50": latency(0.50),
        "delivery.detect_latency_sim_p95": latency(0.95),
        "reliability.transport_self_s": (
            (transport[0] + transport_actions, "") if transport[0] is not None else transport
        ),
        "reliability.timer_share": (
            (tracer.counters["sim.timer_entries"] / agenda, "")
            if agenda
            else (None, tracer.why_missing("sim.at"))
        ),
        "reliability.retransmission_units": total("retransmission_units"),
        "reliability.dropped_messages": total("dropped_messages"),
        "oracle.truth_s": (prepared.truth_s, ""),
        "workload.source_s": (prepared.source_s, ""),
        "workload.compile_s": (prepared.compile_s, ""),
        "recall.measure_s": (cells_s(reference, "recall_s"), ""),
        "api.session_create_s": (cells_s(reference, "create_s"), ""),
        "api.ingest_schedule_s": (cells_s(reference, "ingest_s"), ""),
        "host.gc_s": (watch.seconds, ""),
        "host.gc_collections": (float(watch.collections), ""),
        "host.trace_overhead_ratio": (
            cells_s(traced, "replay_s") / cells_s(reference, "replay_s"),
            "",
        ),
    }
    by_cell = {run.cell: run for run in reference}
    for key in ALL_FIVE:
        run = by_cell.get(key)
        absent = (None, "cell not part of this workload")
        out[f"approaches.{key}.replay_s"] = (run.replay_s, "") if run else absent
        out[f"approaches.{key}.submit_ms_p50"] = (
            (percentile(sorted(run.submit_s), 0.5) * 1e3, "") if run else absent
        )
    return out


def replay_shares(tracer: Tracer, traced: list[CellRun]) -> dict[str, float]:
    """Each layer's self time inside the replay window, as a share of
    the traced replay wall — what shows which layers a workload loads."""
    wall = sum(run.replay_s for run in traced)
    groups: dict[str, float] = {}
    for name, seconds in tracer.replay_self.items():
        layer = name.split(".", 1)[0]
        if name.startswith("sim.action:Transport."):
            layer = "reliability"
        elif name.startswith("sim.action:"):
            layer = "agenda_actions"
        elif name in ("network.send", "network.unicast"):
            layer = "network.send"
        groups[layer] = groups.get(layer, 0.0) + seconds
    return {layer: seconds / wall for layer, seconds in sorted(groups.items())}


# ---------------------------------------------------------------------------
# the traced run of one workload
# ---------------------------------------------------------------------------
def run_traced(
    workload: Workload,
    seed: int,
    smoke: bool,
    out_dir: Path,
) -> dict[str, Any]:
    prepared = prepare(workload, seed, smoke)
    digests: dict[str, str] = {}
    watch = GcWatch()
    with PhaseClock() as clock:
        all_runs = run_round(prepared, clock, digests)  # warm-up
        reference = run_round(prepared, clock, digests, around_cell=watch)
        with Tracer() as tracer:
            clock.observer = tracer
            traced = run_round(prepared, clock, digests)
            clock.observer = None
    all_runs += reference + traced
    leftover = still_wrapped()

    failed = [run for run in all_runs if run.failures]
    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "cells": list(workload.cells),
        "readings": prepared.readings,
        "ops_attempted": len(all_runs),
        "ops_failed": len(failed),
        "failures": [f"{run.cell}: {msg}" for run in failed for msg in run.failures]
        + [f"wrapper left installed on {name}" for name in leftover],
    }
    result["correct"] = not result["failures"]
    if failed:
        return result

    metrics = layer_metrics(tracer, prepared, reference, traced, watch)
    metrics.update(engine_sweep(prepared))
    metrics["host.py_calls_per_reading"] = py_calls_per_reading(prepared)
    metrics.update(sketch_probe(smoke))
    metrics["placement.compile_ms_per_query"] = placement_probe(smoke)
    result["layers"] = {name: value for name, (value, _) in metrics.items()}
    result["unavailable"] = {
        name: reason for name, (value, reason) in metrics.items() if value is None
    }
    result["replay_shares"] = replay_shares(tracer, traced)
    trace_file = out_dir / f"trace-{workload.name}.json"
    tracer.dump(
        trace_file,
        {"workload": workload.name, "seed": seed, "smoke": smoke, "cells": list(workload.cells)},
    )
    result["trace_file"] = str(trace_file)
    result["trace_missing"] = dict(tracer.missing)
    return result
