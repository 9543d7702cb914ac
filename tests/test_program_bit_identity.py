"""Pinned simulated outcomes of the program-driven runner.

The repo benchmark's digest only compares repetitions *inside* one run,
so identity *across commits* is pinned here: ``golden_run_results.json``
holds the outcome of four small points, all five approaches each, taken
at commit 9bc0088 (before the agenda entries, the transport hot path
and ``TrafficMeter.record`` were rewritten).

* ``static`` / ``churn`` — every ``RunResult`` field of a settled
  admit-at-t=0 program against the golden (the figure history's
  fixed-prefix results);
* ``faults`` (the ``FAULTS`` regime) / ``late_copy`` (per-link delay and
  jitter, an outage, a round trip longer than the ack timeout) — final
  meter snapshot, abandoned transfers, delivered keys per subscription:
  the fence around the fault stream's draw order and ``abandon_from``.

Every run here is shadowed (``tests/conftest.py``): each node's engine
is checked against the reference matcher's hit map at every arrival.
``static`` and ``churn`` also run once on the bare incremental engine
(``matching="incremental"``), the one the library builds.

Regenerate, only in a change that *means* to move a simulated outcome:
``PYTHONPATH=src python tests/test_program_bit_identity.py``
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.experiments.runner import REPLAY_START, run_program
from repro.metrics.oracle import compute_truth
from repro.network.faults import FaultPlan, LinkFault, OutageWindow
from repro.network.reliability import ReliabilityConfig
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.workload.program import WorkloadProgram, execute_program
from repro.workload.sensorscope import (
    ChurnConfig,
    DynamicReplayConfig,
    ReplayConfig,
    build_replay,
)
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)

GOLDEN_PATH = Path(__file__).with_name("golden_run_results.json")

STATIC_SUBSCRIPTIONS = SubscriptionWorkloadConfig(
    n_subscriptions=8, attrs_min=3, attrs_max=5, seed=2
)
STATIC_REPLAY = ReplayConfig(rounds=6, seed=3)

# r0 <-> r1 is the backbone of build_deployment(24, 3, seed=2): its 1.3 s
# round trip outlives the 1.0 s ack timeout, so every control transfer
# over it is retransmitted and the second copy arrives late.
FAULT_PLANS: dict[str, tuple[FaultPlan, ReliabilityConfig]] = {
    "faults": (
        FaultPlan(default=LinkFault(drop=0.1), seed=97),
        ReliabilityConfig(),
    ),
    "late_copy": (
        FaultPlan(
            default=LinkFault(drop=0.02),
            links=(
                ("r0", "r1", LinkFault(delay=0.6)),
                ("r1", "r0", LinkFault(delay=0.6)),
                ("r1", "r5", LinkFault(drop=0.2, delay=0.1, jitter=0.4)),
                ("r5", "r1", LinkFault(jitter=0.4)),
                ("r2", "s0_at", LinkFault(drop=0.1, jitter=0.05)),
            ),
            outages=(OutageWindow(("r5", "s0_wd"), 25.0, 40.0),),
            seed=11,
        ),
        ReliabilityConfig(refresh_interval=30.0),
    ),
}


STATIC_PROGRAM = WorkloadProgram(
    subscriptions=STATIC_SUBSCRIPTIONS, replay=STATIC_REPLAY
)
CHURN_PROGRAM = WorkloadProgram(
    subscriptions=SubscriptionWorkloadConfig(
        n_subscriptions=6, attrs_min=3, attrs_max=5, seed=4
    ),
    dynamic=DynamicReplayConfig(days=2, rounds_per_day=6, day_seconds=100.0),
    churn=ChurnConfig(cycle_fraction=0.3),
)


@functools.cache
def static_point():
    return STATIC_PROGRAM.compile(build_deployment(24, 3, seed=2))


@functools.cache
def churn_point():
    return CHURN_PROGRAM.compile(build_deployment(24, 3, seed=4))


def run_results(compiled) -> dict[str, dict]:
    """``RunResult`` fields per approach for one settled point, as the
    golden file holds them (JSON: a tuple reads back as a list)."""
    return json.loads(
        json.dumps(
            {
                key: asdict(run_program(approach, compiled))
                for key, approach in all_approaches().items()
            }
        )
    )


def fault_outcomes(name: str) -> dict[str, dict]:
    """What the fault lane decides, per approach, under ``FAULT_PLANS[name]``."""
    plan, reliability = FAULT_PLANS[name]
    compiled = replace(
        STATIC_PROGRAM, faults=plan, reliability=reliability
    ).compile(static_point().deployment)
    outcomes = {}
    for key in all_approaches():
        execution = execute_program(compiled, key)
        network = execution.session.network
        outcomes[key] = {
            "snapshot": asdict(execution.final),
            "abandoned_transfers": network.transport.abandoned_transfers,
            "delivered": {
                sub_id: " ".join(
                    f"{sensor}:{seq}"
                    for sensor, seq in sorted(network.delivery.delivered(sub_id))
                )
                for sub_id in network.delivery.subscriptions()
            },
        }
    return outcomes


@functools.cache
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


class TestSettledProgramBitIdentity:
    """A settled admit-at-t=0, no-retire program reproduces the pinned
    fixed-prefix results exactly."""

    @pytest.mark.parametrize("matching", ["incremental", "reference"])
    def test_all_approaches_static(self, matching, matcher):
        matcher(matching)
        actual = run_results(static_point())
        assert actual == golden()["static"], matching
        for result in actual.values():
            assert result["retired_queries"] == 0
            assert result["final"]["teardown_units"] == 0

    @pytest.mark.parametrize("matching", ["incremental", "reference"])
    def test_all_approaches_under_churn(self, matching, matcher):
        """Churn keeps the advertisement channel live mid-replay."""
        matcher(matching)
        actual = run_results(churn_point())
        assert actual == golden()["churn"], matching
        assert all(
            result["final"]["advertisement_units"]
            > result["after_advertisements"]["advertisement_units"]
            for result in actual.values()
        )

    @pytest.mark.parametrize("name", sorted(FAULT_PLANS))
    def test_fault_lane_outcomes(self, name):
        """Drop and jitter draws, retransmission instants, crash-time
        abandonment and late copies all land where they did."""
        actual = fault_outcomes(name)
        assert actual == golden()[name]
        assert any(o["snapshot"]["retransmission_units"] for o in actual.values())

    def test_program_truth_equals_direct_truth(self):
        compiled = static_point()
        deployment = compiled.deployment
        replay = build_replay(deployment, STATIC_REPLAY)
        workload = generate_subscriptions(
            deployment,
            replay.medians,
            STATIC_SUBSCRIPTIONS,
            spreads=replay.spreads,
        )
        direct = compute_truth(
            [p.subscription for p in workload],
            deployment,
            replay.shifted(REPLAY_START),
        )
        via_program = compiled.truth()
        assert set(via_program) == set(direct)
        for sub_id, truth in via_program.items():
            assert truth.triggers == direct[sub_id].triggers
            assert truth.participants == direct[sub_id].participants


if __name__ == "__main__":
    goldens = {
        "static": run_results(static_point()),
        "churn": run_results(churn_point()),
        **{name: fault_outcomes(name) for name in FAULT_PLANS},
    }
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
