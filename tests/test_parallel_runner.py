"""Tests for the series runner's worker pool.

Two families of guarantees:

* **merge fidelity** — `run_series(workers=N)` returns the in-process
  (`workers=1`) `SeriesResult` bit-identically (same `RunResult`
  dataclasses, point for point, same key order);
* **cross-process determinism** — a full `RunResult` (and a whole
  pooled series) is identical when computed in subprocesses with
  *different* `PYTHONHASHSEED` values, which is exactly what the
  replay-seeding fix (`repro.seeding`) buys: worker processes
  synthesize the same events the parent computed ground truth for.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from benchlib import tiny_series_scenario

from repro.baselines.naive import NaiveNode
from repro.core import FSFConfig, filter_split_forward_approach
from repro.experiments import RunResult, default_workers, run_series, runner
from repro.metrics.approx import ApproxReport, ApproxStats
from repro.metrics.recall import RecallReport
from repro.network.faults import FaultPlan, LinkFault
from repro.network.links import TrafficSnapshot
from repro.network.reliability import ReliabilityConfig
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches, distributed_approaches
from repro.workload.program import QueryLifecycleConfig
from repro.workload.scenarios import Scenario
from repro.workload.sensorscope import ChurnConfig, DynamicReplayConfig

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

# Its module-level factory is picklable, as the worker pool requires.
TINY = tiny_series_scenario()

# The dynamic/churn variant: multi-day drifting replay, 30% of sensors
# cycling — the pool must reproduce the in-process result (and be
# PYTHONHASHSEED-independent) with the churn machinery in the loop too.
TINY_CHURN = Scenario(
    key="tiny-churn",
    title="tiny churn scenario",
    deployment_factory=tiny_series_scenario().deployment_factory,
    paper_subscription_counts=(60, 120),
    attrs_min=3,
    attrs_max=5,
    dynamic=DynamicReplayConfig(days=2, rounds_per_day=6, day_seconds=100.0),
    churn=ChurnConfig(cycle_fraction=0.3),
)

# The query-lifecycle variant: a Poisson admit/retire stream on top of
# the static prefix — lifecycle edges must thread through worker memos
# (and across PYTHONHASHSEED values) exactly like churn does.
TINY_LIFECYCLE = Scenario(
    key="tiny-lifecycle",
    title="tiny admit/retire scenario",
    deployment_factory=tiny_series_scenario().deployment_factory,
    paper_subscription_counts=(60, 120),
    attrs_min=3,
    attrs_max=5,
    lifecycle=QueryLifecycleConfig(admit_rate=0.1, hold=20.0),
)

# The unreliable-transport variant: 10% link loss with the reliability
# layer on — every fault draw comes from one agenda-serialised stream,
# so the pool must still reproduce the in-process series exactly.
TINY_FAULTS = Scenario(
    key="tiny-faults-sharded",
    title="tiny faulty scenario",
    deployment_factory=tiny_series_scenario().deployment_factory,
    paper_subscription_counts=(60, 120),
    attrs_min=3,
    attrs_max=5,
    faults=FaultPlan(default=LinkFault(drop=0.1, jitter=0.02), seed=5),
    reliability=ReliabilityConfig(),
)


class TestMergeFidelity:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_series(TINY, distributed_approaches(), scale=0.1, workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_equals_serial_bit_identically(self, serial, workers):
        parallel = run_series(
            TINY, distributed_approaches(), scale=0.1, workers=workers
        )
        assert parallel.counts == serial.counts
        assert list(parallel.results) == list(serial.results)  # key order
        assert parallel.results == serial.results  # RunResult dataclasses

    def test_every_registry_approach_pickles(self):
        for approach in all_approaches().values():
            clone = pickle.loads(pickle.dumps(approach))
            # partial objects compare by identity: check the factory by
            # its pickle, everything else field for field.
            assert pickle.dumps(clone) == pickle.dumps(approach)
            assert (
                dataclasses.replace(clone, make_node=approach.make_node)
                == approach
            )

    def test_custom_fsf_config_travels_with_the_approach(self):
        """Approaches reach the workers as themselves, so a custom
        FSFConfig carried only by the passed-in instance is what the
        pool runs — silently running defaults would break the
        bit-identical contract."""
        cfg = FSFConfig(coarsening=2.0)
        approaches = {"fsf": filter_split_forward_approach(cfg)}
        serial = run_series(TINY, approaches, scale=0.1, workers=1)
        parallel = run_series(TINY, approaches, scale=0.1, workers=2)
        assert parallel.results == serial.results
        default = run_series(
            TINY, {"fsf": all_approaches()["fsf"]}, scale=0.1, workers=2
        )
        assert parallel.results != default.results  # the config matters

    def test_approach_outside_the_registry_runs_pooled(self, serial):
        """Nothing is re-resolved by key: an approach the registry has
        never heard of is pickled and run like any other."""
        custom = dataclasses.replace(
            all_approaches()["naive"], key="warp-drive", name="Warp drive"
        )
        parallel = run_series(TINY, {"warp": custom}, scale=0.1, workers=2)
        assert list(parallel.results) == ["warp"]
        assert parallel.results["warp"] == [
            dataclasses.replace(r, approach="warp-drive")
            for r in serial.results["naive"]
        ]

    def test_unpicklable_scenario_rejected_with_guidance(self):
        """Refused only where something must pickle: the same scenario
        and approach run in-process at ``workers=1``."""
        opaque = Scenario(
            key="lambda-factory",
            title="unpicklable",
            deployment_factory=lambda seed: build_deployment(24, 3, seed=seed),
            paper_subscription_counts=(60, 120),
        )
        naive = all_approaches()["naive"]
        closure = dataclasses.replace(
            naive, make_node=lambda node_id, network: NaiveNode(node_id, network)
        )
        with pytest.raises(ValueError, match="picklable"):
            run_series(opaque, {"naive": naive}, scale=0.1, workers=2)
        with pytest.raises(ValueError, match="picklable"):
            run_series(TINY, {"naive": closure}, scale=0.1, workers=2)
        solo = run_series(opaque, {"naive": closure}, scale=0.1, workers=1)
        assert [r.n_subscriptions for r in solo.results["naive"]] == solo.counts

    def test_partition_is_counts_major_in_key_order(self, monkeypatch):
        monkeypatch.setattr(runner, "run_task", lambda t: (t.n, t.approach.key))
        registry = all_approaches()
        approaches = {"b": registry["naive"], "a": registry["fsf"]}
        series = run_series(TINY, approaches, scale=0.1, workers=1)
        assert series.counts == [6, 12]
        assert list(series.results) == ["b", "a"]
        assert series.results == {
            "b": [(6, "naive"), (12, "naive")],
            "a": [(6, "fsf"), (12, "fsf")],
        }

    def test_churn_sharded_equals_serial_bit_identically(self):
        """The dynamic scenario family in-process and pooled: replay
        synthesis, churn scheduling and the churn-aware oracle must all
        reproduce identically in worker processes."""
        serial = run_series(
            TINY_CHURN, distributed_approaches(), scale=0.1, workers=1
        )
        parallel = run_series(
            TINY_CHURN, distributed_approaches(), scale=0.1, workers=2
        )
        assert parallel.counts == serial.counts
        assert parallel.results == serial.results
        # The churn machinery genuinely ran: re-flood traffic accrued.
        assert all(
            r.final.advertisement_units > r.after_advertisements.advertisement_units
            for runs in serial.results.values()
            for r in runs
        )

    def test_lifecycle_sharded_equals_serial_bit_identically(self):
        """The admit/retire family in-process and pooled: program
        compilation, scheduled admissions/retirements and the
        per-lifetime oracle fences must all reproduce identically in
        worker processes — the tentpole acceptance check."""
        serial = run_series(
            TINY_LIFECYCLE, distributed_approaches(), scale=0.1, workers=1
        )
        parallel = run_series(
            TINY_LIFECYCLE, distributed_approaches(), scale=0.1, workers=2
        )
        assert parallel.counts == serial.counts
        assert parallel.results == serial.results
        # The lifecycle machinery genuinely ran: queries were admitted
        # beyond the static prefix, retired, and teardown was metered.
        for runs in serial.results.values():
            for n, r in zip(serial.counts, runs):
                assert r.n_subscriptions > n
                assert r.retired_queries > 0
                assert r.final.teardown_units > 0
                # Subscription units beyond the setup phase's and the
                # teardown: mid-run admissions.
                admitted = r.final.minus(r.after_setup)
                assert admitted.subscription_units > admitted.teardown_units

    def test_faults_sharded_equals_serial_bit_identically(self):
        """The fault family in-process and pooled: drop/jitter draws,
        retransmission timers and refresh rounds must all reproduce
        identically in worker processes — the plan is pure data and the
        draws replay from the seeded stream."""
        serial = run_series(
            TINY_FAULTS, distributed_approaches(), scale=0.1, workers=1
        )
        parallel = run_series(
            TINY_FAULTS, distributed_approaches(), scale=0.1, workers=2
        )
        assert parallel.counts == serial.counts
        assert parallel.results == serial.results
        # The fault machinery genuinely ran: losses and retransmissions.
        for runs in serial.results.values():
            for r in runs:
                assert r.final.dropped_messages > 0
                assert r.final.retransmission_units > 0
                assert r.final.refresh_units > 0

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            default_workers()


def _run_under_hashseed(script: str, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-c", script.format(path=_SRC)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip()


# Every class a RunResult's repr names, for eval().
_REPR_NAMES = {
    cls.__name__: cls
    for cls in (RunResult, TrafficSnapshot, RecallReport, ApproxReport, ApproxStats)
}


def _printed_results(out: str) -> list[RunResult]:
    """The ``<key> RunResult(...)`` lines a script printed, evaluated."""
    return [
        eval(line.split(" ", 1)[1], dict(_REPR_NAMES))  # noqa: S307
        for line in out.splitlines()
        if " RunResult(" in line
    ]


class TestCrossProcessDeterminism:
    _POINT_SCRIPT = """
import sys; sys.path.insert(0, {path!r})
from repro.experiments.runner import run_program
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.workload.program import WorkloadProgram
from repro.workload.sensorscope import ReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

compiled = WorkloadProgram(
    subscriptions=SubscriptionWorkloadConfig(
        n_subscriptions=8, attrs_min=3, attrs_max=5, seed=2
    ),
    replay=ReplayConfig(rounds=6, seed=3),
).compile(build_deployment(24, 3, seed=2))
print(repr(run_program(all_approaches()["fsf"], compiled)))
"""

    _SERIES_SCRIPT = """
import sys; sys.path.insert(0, {path!r})
from repro.experiments import run_series
from repro.protocols.registry import all_approaches
from repro.network.topology import build_deployment
from repro.workload.scenarios import Scenario

def factory(seed):
    return build_deployment(24, 3, seed=seed)

scenario = Scenario(
    key="xproc",
    title="cross-process determinism",
    deployment_factory=factory,
    paper_subscription_counts=(60, 120),
    attrs_min=3,
    attrs_max=5,
)
approaches = {{key: all_approaches()[key] for key in ("naive", "fsf")}}
series = run_series(scenario, approaches, scale=0.1, workers=4)
for key, runs in series.results.items():
    for result in runs:
        print(key, repr(result))
"""

    def test_point_dataclass_equal_across_hashseeds(self):
        """The satellite acceptance check: one full RunResult, two
        subprocesses, two different PYTHONHASHSEED values — equal as
        dataclasses, not merely as strings."""
        outs = [
            _run_under_hashseed(self._POINT_SCRIPT, seed)
            for seed in ("0", "1")
        ]
        results = [
            eval(out, dict(_REPR_NAMES)) for out in outs  # noqa: S307
        ]
        assert isinstance(results[0], RunResult)
        assert results[0] == results[1]
        assert results[0].n_subscriptions == 8

    def test_sharded_series_equal_across_hashseeds(self):
        """The tentpole acceptance check, scaled to test budget: the
        pooled runner's whole SeriesResult is identical under two
        PYTHONHASHSEED values."""
        a = _run_under_hashseed(self._SERIES_SCRIPT, "0")
        b = _run_under_hashseed(self._SERIES_SCRIPT, "31337")
        assert a == b
        assert "naive" in a and "fsf" in a

    _CHURN_SCRIPT = """
import sys; sys.path.insert(0, {path!r})
from repro.experiments import run_series
from repro.protocols.registry import all_approaches
from repro.network.topology import build_deployment
from repro.workload.scenarios import Scenario
from repro.workload.sensorscope import (
    ChurnConfig,
    DynamicReplayConfig,
    build_replay,
)

def factory(seed):
    return build_deployment(24, 3, seed=seed)

scenario = Scenario(
    key="xproc-churn",
    title="cross-process churn determinism",
    deployment_factory=factory,
    paper_subscription_counts=(60, 120),
    attrs_min=3,
    attrs_max=5,
    dynamic=DynamicReplayConfig(days=2, rounds_per_day=6, day_seconds=100.0),
    churn=ChurnConfig(cycle_fraction=0.3),
)
replay = build_replay(
    factory(scenario.seed), scenario.dynamic, scenario.churn
)
print(sorted(replay.churn.intervals.items()))
print(len(replay.events), repr(replay.events[0]), repr(replay.events[-1]))
approaches = {{key: all_approaches()[key] for key in ("naive", "fsf")}}
series = run_series(scenario, approaches, scale=0.1, workers=2)
for key, runs in series.results.items():
    for result in runs:
        print(key, repr(result))
"""

    def test_churn_series_and_schedule_equal_across_hashseeds(self):
        """Dynamic replay + churn schedule are bit-identical across
        PYTHONHASHSEED subprocesses, and so is the sharded churn series
        built from them (the satellite acceptance check)."""
        a = _run_under_hashseed(self._CHURN_SCRIPT, "0")
        b = _run_under_hashseed(self._CHURN_SCRIPT, "424242")
        assert a == b
        assert "d0_" in a
        results = _printed_results(a)
        assert results and all(
            r.final.advertisement_units > r.after_advertisements.advertisement_units
            for r in results
        )

    _LIFECYCLE_SCRIPT = """
import sys; sys.path.insert(0, {path!r})
from repro.experiments import run_series
from repro.protocols.registry import all_approaches
from repro.network.topology import build_deployment
from repro.workload.program import QueryLifecycleConfig
from repro.workload.scenarios import Scenario

def factory(seed):
    return build_deployment(24, 3, seed=seed)

scenario = Scenario(
    key="xproc-lifecycle",
    title="cross-process admit/retire determinism",
    deployment_factory=factory,
    paper_subscription_counts=(60, 120),
    attrs_min=3,
    attrs_max=5,
    lifecycle=QueryLifecycleConfig(admit_rate=0.1, hold=20.0),
)
program = scenario.program(12)
source = program.source(factory(scenario.seed))
print(source.edges)
approaches = {{key: all_approaches()[key] for key in ("naive", "fsf")}}
series = run_series(scenario, approaches, scale=0.1, workers=2)
for key, runs in series.results.items():
    for result in runs:
        print(key, repr(result))
"""

    def test_lifecycle_series_and_schedule_equal_across_hashseeds(self):
        """The Poisson admit/retire draws and the whole sharded series
        built from them are bit-identical across PYTHONHASHSEED
        subprocesses — the acceptance criterion of the workload-program
        tentpole."""
        a = _run_under_hashseed(self._LIFECYCLE_SCRIPT, "0")
        b = _run_under_hashseed(self._LIFECYCLE_SCRIPT, "31337")
        assert a == b
        assert "LifecycleEdge" in a
        assert "retired_queries=" in a and "retired_queries=0" not in a

    _FAULTS_SCRIPT = """
import sys; sys.path.insert(0, {path!r})
from repro.experiments import run_series
from repro.protocols.registry import all_approaches
from repro.network.faults import FaultPlan, LinkFault
from repro.network.reliability import ReliabilityConfig
from repro.network.topology import build_deployment
from repro.workload.scenarios import Scenario

def factory(seed):
    return build_deployment(24, 3, seed=seed)

scenario = Scenario(
    key="xproc-faults",
    title="cross-process fault-draw determinism",
    deployment_factory=factory,
    paper_subscription_counts=(60, 120),
    attrs_min=3,
    attrs_max=5,
    faults=FaultPlan(default=LinkFault(drop=0.1, jitter=0.02), seed=5),
    reliability=ReliabilityConfig(),
)
approaches = {{key: all_approaches()[key] for key in ("naive", "fsf")}}
series = run_series(scenario, approaches, scale=0.1, workers=2)
for key, runs in series.results.items():
    for result in runs:
        print(key, repr(result))
"""

    def test_faulty_series_equal_across_hashseeds(self):
        """Every drop, jitter and retransmission draw comes from a
        stream keyed by the *stable* hash of ``faults:<seed>``, so a
        sharded series over a faulty transport is bit-identical across
        PYTHONHASHSEED subprocesses — the fault tentpole's acceptance
        check."""
        a = _run_under_hashseed(self._FAULTS_SCRIPT, "0")
        b = _run_under_hashseed(self._FAULTS_SCRIPT, "424242")
        assert a == b
        results = _printed_results(a)
        assert results and all(
            r.final.dropped_messages > 0 and r.final.retransmission_units > 0
            for r in results
        )
