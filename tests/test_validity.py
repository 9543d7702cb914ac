"""Event validity follows the admitted windows (Section IV-B).

A node keeps an event only while some admitted correlation window can
still need it.  ``Network`` starts at the paper's 5 s window, and each
registration whose ``delta_t`` needs more raises the validity of the
network and of every node's event store.  Validity never shrinks: a
cancel leaves it, and a crashed broker's new store reads it.  A program
raises it once before its replay, from the widest window it will
admit, so a wide query admitted mid-replay still finds the older
readings the stores would otherwise have dropped.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import Query, Session
from repro.experiments.runner import run_program
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.workload.program import REPLAY_START, ProgramQuery, WorkloadProgram
from repro.workload.scenarios import SMALL
from repro.workload.sensorscope import ReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

APPROACHES = sorted(all_approaches())


@pytest.mark.parametrize("approach", APPROACHES)
def test_a_pair_forty_seconds_apart_reaches_a_sixty_second_window(approach):
    """A ``.within(60.0)`` query over the first and sixth sensors, whose
    readings are published 40 s apart."""
    session = Session.create(approach=approach, seed=11)
    sensors = [p.sensor_id for p in session.deployment.sensors]
    query = (
        Query()
        .where(sensors[0], -1e6, 1e6)
        .where(sensors[5], -1e6, 1e6)
        .within(60.0)
    )
    handle = session.submit(query, at="r1")
    t0 = session.now + 5.0
    session.ingest(sensors[0], 1.0, timestamp=t0)
    session.ingest(sensors[5], 2.0, timestamp=t0 + 40.0)
    session.drain()
    assert len(handle.matches()) == 1


@pytest.fixture(scope="module")
def wide_program():
    """``SMALL`` with 100 generated subscriptions at delta_t = 60 s over
    the default 24-round static replay, and its oracle truth."""
    base = SMALL.program(100)
    program = replace(
        base, subscriptions=replace(base.subscriptions, delta_t=60.0)
    )
    compiled = program.compile(SMALL.deployment())
    return compiled, compiled.truth()


@pytest.mark.parametrize("approach", APPROACHES)
def test_no_approach_loses_an_instance_at_sixty_seconds(wide_program, approach):
    compiled, truths = wide_program
    result = run_program(all_approaches()[approach], compiled, truths=truths)
    assert result.accuracy.true_instances == 3622
    assert result.accuracy.recall == 1.0


@pytest.fixture(scope="module")
def mid_replay_program():
    """A ``.within(60.0)`` query admitted 70 s into a 10-round replay.

    Both queries take one reading of sensor A (its value is unique in
    the replay, at about t = 29 s) and any reading of sensor B.  The
    setup query (5 s) carries A's reading to where the queries
    correlate; the wide one's triggers are B's readings after 70 s,
    whose only partner is that reading, 40-60 s older.  By 70 s the
    stores would have dropped it at the paper's validity.
    """
    deployment = build_deployment(24, 3, seed=11)
    base = WorkloadProgram(
        subscriptions=SubscriptionWorkloadConfig(n_subscriptions=1, seed=2),
        replay=ReplayConfig(rounds=10),
        static_prefix=0,
    )
    a, b = deployment.sensors[0].sensor_id, deployment.sensors[5].sensor_id
    readings = sorted(
        (e for e in base.compile(deployment).events if e.sensor_id == a),
        key=lambda e: e.timestamp,
    )
    pick = readings[2]
    assert [e.value for e in readings].count(pick.value) == 1
    assert 25.0 < pick.timestamp - REPLAY_START < 35.0

    def query(delta_t, name):
        return (
            Query()
            .named(name)
            .where(a, pick.value, pick.value)
            .where(b, -1e6, 1e6)
            .within(delta_t)
        )

    program = replace(
        base,
        queries=(
            ProgramQuery(query(5.0, "narrow")),
            ProgramQuery(query(60.0, "wide"), admit=70.0),
        ),
    )
    compiled = program.compile(deployment)
    truths = compiled.truth()
    assert truths["wide"].n_instances == 2
    return compiled, truths


@pytest.mark.parametrize("approach", APPROACHES)
def test_a_wide_query_admitted_mid_replay_finds_older_readings(
    mid_replay_program, approach
):
    compiled, truths = mid_replay_program
    result = run_program(all_approaches()[approach], compiled, truths=truths)
    assert result.accuracy.true_instances == 3
    assert result.accuracy.recall == 1.0


def test_widened_validity_survives_a_crash_a_cancel_and_a_narrower_query():
    session = Session.create(approach="naive", seed=11)
    network = session.network
    start = network.validity
    sensor = session.deployment.sensors[0].sensor_id
    handle = session.submit(Query().where(sensor, 0.0, 1.0).within(60.0), at="r1")
    widened = network.validity
    assert widened > start
    assert all(node.store.validity == widened for node in network.nodes.values())

    network.crash_node("r1")
    network.recover_node("r1")
    assert network.nodes["r1"].store.validity == widened

    handle.cancel()
    session.submit(Query().where(sensor, 0.0, 1.0).within(1.0), at="r1")
    assert network.validity == widened
    assert all(node.store.validity == widened for node in network.nodes.values())
