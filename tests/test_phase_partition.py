"""The three traffic readings of a run partition it by channel.

``RunResult`` keeps the meter's cumulative readings after the
advertisement flood, after the settled setup registrations and at the
end of the replay.  The figures read the paper's loads straight off
them — subscription load ``after_setup.subscription_units``, event
load and whole-run totals ``final`` — which holds only while

* the advertisement phase carries advertisement units alone, and
* the setup phase carries no event and no teardown units.

Checked here over every approach on the program that puts the most
lanes in one run: churn + query lifecycle + lossy reliable transport.
"""

from __future__ import annotations

import functools

import pytest

from repro.experiments.runner import run_program
from repro.network.faults import FaultPlan, LinkFault
from repro.network.reliability import ReliabilityConfig
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.workload.program import QueryLifecycleConfig, WorkloadProgram
from repro.workload.sensorscope import ChurnConfig, DynamicReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

COMPOSED = WorkloadProgram(
    subscriptions=SubscriptionWorkloadConfig(
        n_subscriptions=8, attrs_min=3, attrs_max=5, seed=4
    ),
    dynamic=DynamicReplayConfig(days=2, rounds_per_day=6, day_seconds=100.0),
    churn=ChurnConfig(cycle_fraction=0.3),
    lifecycle=QueryLifecycleConfig(admit_rate=0.1, hold=20.0),
    faults=FaultPlan(default=LinkFault(drop=0.05), seed=97),
    reliability=ReliabilityConfig(refresh_interval=30.0),
)


@functools.cache
def compiled():
    point = COMPOSED.compile(build_deployment(24, 3, seed=4))
    return point, point.truth()


@pytest.mark.parametrize("key", list(all_approaches()))
def test_composed_run_phases_partition_the_channels(key):
    point, truths = compiled()
    result = run_program(all_approaches()[key], point, truths=truths)
    ads = result.after_advertisements
    setup = result.after_setup.minus(ads)
    assert (ads.subscription_units, ads.event_units) == (0, 0), ads
    assert (setup.event_units, setup.teardown_units) == (0, 0), setup
    assert setup.subscription_units > 0, setup
    # Every lane of the program ran in the replay phase.
    replay = result.final.minus(result.after_setup)
    assert replay.event_units > 0
    assert replay.advertisement_units > 0  # churn re-floods
    assert replay.teardown_units > 0 and result.retired_queries > 0
    assert replay.refresh_units > 0
    assert result.final.dropped_messages > 0
