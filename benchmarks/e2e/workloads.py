"""The four benchmark workloads: figure points of the repo's own scenarios.

Every workload is a ``(deployment, WorkloadProgram)`` pair plus the
approach cells that run it.  The deployment and the generated
subscription pool stay at the scenario's committed seeds (the figure
point whose traffic the figure suite already verifies).  ``--seed``
feeds one or two streams of the measurement campaign on top, as an
offset to their committed defaults, so seed 0 *is* the committed
scenario:

* ``small_static``      the sensor readings;
* ``shared_templates``  the sensor readings and the clones' user nodes;
* ``lifecycle_churn``   the churn schedule and the admit/retire schedule;
* ``lossy_reliable``    the link-fault draws.

The benchmark is accepted on the spread of every metric over ten seeds,
so a seed may only move the amount of work by a few percent: redrawing
topology and pool moves the simulated totals by 8-9%, reseeding the
bursty round clock of the dynamic replay moves the admission count by
+-25% (README, "Seeds").

Sizes are tuned to the driver's budget (README, "Run-time budget"):
one repetition of every cell in 2.5-3.5 s on the quiet reference box,
so a ``run_seconds`` window holds five or more interleaved repetitions
and no cell runs for more than two seconds between two calibrations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.model.subscriptions import IdentifiedSubscription
from repro.network.topology import Deployment, build_deployment
from repro.seeding import derive_seed
from repro.workload.program import (
    ProgramQuery,
    QueryLifecycleConfig,
    WorkloadProgram,
)
from repro.workload.scenarios import ADMIT_RETIRE, FAULTS, SMALL, Scenario
from repro.workload.sensorscope import ChurnConfig, ReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

DISTRIBUTED = ("naive", "operator_placement", "multijoin", "fsf")
ALL_FIVE = DISTRIBUTED + ("centralized",)

# full size / --smoke size
SMALL_STATIC_SUBSCRIPTIONS = (200, 24)
SHARED_TEMPLATES = (40, 6)
SHARED_CLONES_PER_TEMPLATE = (25, 4)
SHARED_ROUNDS = (12, 5)
LIFECYCLE_STATIC_SUBSCRIPTIONS = (100, 12)
LIFECYCLE_ADMIT_RATE = 0.5
LIFECYCLE_HOLD = 60.0
# The Poisson clock would draw ~150 admissions over the window; the cap
# is reached for every seed, so the number of admissions never varies.
LIFECYCLE_MAX_ADMISSIONS = (120, 8)
LIFECYCLE_ROUNDS_PER_DAY = (9, 5)
LOSSY_SUBSCRIPTIONS = (100, 12)
STATIC_ROUNDS = (24, 5)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``build(seed, smoke)`` returns the deployment and the program;
    ``strict`` marks the fault-free static workloads, where the
    deterministic approaches must reach recall 1.0.
    """

    name: str
    why: str
    cells: tuple[str, ...]
    build: Callable[[int, bool], tuple[Deployment, WorkloadProgram]]
    strict: bool


def _scenario_point(
    scenario: Scenario, n_subscriptions: int
) -> tuple[Deployment, WorkloadProgram]:
    return scenario.deployment(), scenario.program(n_subscriptions)


def _static_replay(seed: int, rounds: int) -> ReplayConfig:
    default = ReplayConfig()
    return replace(default, seed=default.seed + seed, rounds=rounds)


def _small_static(seed: int, smoke: bool) -> tuple[Deployment, WorkloadProgram]:
    return _scenario_point(
        replace(SMALL, replay=_static_replay(seed, STATIC_ROUNDS[smoke])),
        SMALL_STATIC_SUBSCRIPTIONS[smoke],
    )


def _shared_templates(seed: int, smoke: bool) -> tuple[Deployment, WorkloadProgram]:
    deployment = build_deployment(24, 3, seed=0)
    base = WorkloadProgram(
        subscriptions=SubscriptionWorkloadConfig(
            n_subscriptions=SHARED_TEMPLATES[smoke], attrs_min=3, attrs_max=5
        ),
        replay=_static_replay(seed, SHARED_ROUNDS[smoke]),
    )
    # The generated pool is the templates (clone 0, at its generated
    # user node); every further clone keeps the filters, takes a fresh
    # id and lands at a seeded random user node.
    templates = base.source(deployment).workload
    users = deployment.user_nodes
    rng = np.random.default_rng(derive_seed(seed, "clone-placement"))
    clones = tuple(
        ProgramQuery(
            IdentifiedSubscription(
                f"t{t:03d}c{c:03d}",
                item.subscription.filters,
                item.subscription.delta_t,
            ),
            at=users[int(rng.integers(0, len(users)))],
        )
        for c in range(1, SHARED_CLONES_PER_TEMPLATE[smoke])
        for t, item in enumerate(templates)
    )
    return deployment, replace(base, queries=clones)


def _lifecycle_churn(seed: int, smoke: bool) -> tuple[Deployment, WorkloadProgram]:
    dynamic = replace(
        ADMIT_RETIRE.dynamic, rounds_per_day=LIFECYCLE_ROUNDS_PER_DAY[smoke]
    )
    churn = ChurnConfig(cycle_fraction=0.25)
    lifecycle = QueryLifecycleConfig(
        admit_rate=LIFECYCLE_ADMIT_RATE,
        hold=LIFECYCLE_HOLD,
        max_admissions=LIFECYCLE_MAX_ADMISSIONS[smoke],
    )
    scenario = replace(
        ADMIT_RETIRE,
        dynamic=dynamic,
        churn=replace(churn, seed=churn.seed + seed),
        lifecycle=replace(lifecycle, seed=lifecycle.seed + seed),
    )
    return _scenario_point(scenario, LIFECYCLE_STATIC_SUBSCRIPTIONS[smoke])


def _lossy_reliable(seed: int, smoke: bool) -> tuple[Deployment, WorkloadProgram]:
    scenario = replace(
        FAULTS,
        replay=_static_replay(0, STATIC_ROUNDS[smoke]),
        faults=replace(FAULTS.faults, seed=FAULTS.faults.seed + seed),
    )
    return _scenario_point(scenario, LOSSY_SUBSCRIPTIONS[smoke])


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "small_static",
            "paper fig 4/5 point, little operator sharing: the per-arrival "
            "floor (agenda, send, meter, event store, node receive/forward) "
            "does most of the work, the matcher about a third",
            DISTRIBUTED,
            _small_static,
            strict=True,
        ),
        Workload(
            "shared_templates",
            "1000 near-duplicate subscriptions on 24 nodes: matcher probes and "
            "subsumption/coverage dominate, agenda and send do little - floor "
            "cuts must show no change here",
            ("naive", "fsf"),
            _shared_templates,
            strict=True,
        ),
        Workload(
            "lifecycle_churn",
            "Poisson admit/retire plus sensor churn over a bursty 2-day replay, "
            "all five approaches: the write path beside the read path, so a "
            "cache paid for in invalidation loses here",
            ALL_FIVE,
            _lifecycle_churn,
            strict=False,
        ),
        Workload(
            "lossy_reliable",
            "10% link loss with ack/retransmit/refresh, all five approaches: "
            "every send goes through Transport and the agenda carries ack "
            "timers, bypassing the inline send path",
            ALL_FIVE,
            _lossy_reliable,
            strict=False,
        ),
    )
}
