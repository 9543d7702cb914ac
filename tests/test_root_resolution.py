"""One resolver turns a subscription into its root operator.

Algorithm 3 (line 3) resolves a subscription against the advertised
sensors and drops it when a source is absent.  A user node (against its
flooded table), the centralized baseline's centre and the offline oracle
(both against the deployment-wide table) must make that decision alike:
the same slots, Δt and Δl, or all three a drop.  A query with an absent
source then has no true instance instead of breaking the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Query, Session
from repro.experiments.runner import run_program
from repro.metrics.oracle import oracle_operator
from repro.model import (
    EVERYWHERE,
    SENSORSCOPE_ATTRIBUTES,
    AbstractSubscription,
    IdentifiedSubscription,
    bounding_rect,
)
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.workload.program import ProgramQuery, WorkloadProgram
from repro.workload.sensorscope import ReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

from deployments import make_network

DEPLOYMENT = build_deployment(24, 3, seed=0)
APPROACHES = ("naive", "centralized", "fsf")
PRESENT, ABSENT = "wind_speed", "ambient_temperature"


def absent_source_query(deployment, sub_id="far"):
    """Both attributes over a region holding one wind sensor and no
    temperature sensor: the temperature source is absent."""
    wind = next(s for s in deployment.sensors if s.attribute.name == PRESENT)
    region = bounding_rect([wind.location], margin=0.05)
    inside = {
        s.attribute.name for s in deployment.sensors if region.contains(s.location)
    }
    assert inside == {PRESENT}
    return AbstractSubscription.from_ranges(
        sub_id, {PRESENT: (0.0, 100.0), ABSENT: (-50.0, 50.0)}, region, 5.0
    )


@pytest.mark.parametrize("approach", APPROACHES)
def test_an_absent_source_drops_the_query_in_a_session(approach):
    session = Session.create(approach=approach, nodes=24, groups=3, seed=0)
    deployment = session.deployment
    handle = session.submit(absent_source_query(deployment), at="r1")
    t0 = session.now + 5.0
    events = [
        session.ingest(s.sensor_id, 10.0, timestamp=t0 + i)
        for i, s in enumerate(deployment.sensors)
    ]
    session.drain()
    truth = session.truth(events)
    assert sum(t.n_instances for t in truth.values()) == 0
    assert "far" not in truth
    assert session.network.dropped_subscriptions == ["far"]
    assert not handle.accepted
    assert handle.matches() == []


@pytest.mark.parametrize("approach", APPROACHES)
def test_an_absent_source_drops_the_query_in_a_program(approach):
    program = WorkloadProgram(
        SubscriptionWorkloadConfig(0),
        replay=ReplayConfig(rounds=4),
        queries=(ProgramQuery(absent_source_query(DEPLOYMENT)),),
    )
    result = run_program(all_approaches()[approach], program.compile(DEPLOYMENT))
    assert result.dropped_subscriptions == 1
    assert result.accuracy.true_instances == 0
    assert result.accuracy.delivered_events == 0


# ---------------------------------------------------------------------------
# the node, the centre and the oracle resolve alike
# ---------------------------------------------------------------------------
SENSORS = [s.sensor_id for s in DEPLOYMENT.sensors]
ATTRIBUTES = [a.name for a in SENSORSCOPE_ATTRIBUTES]
LOCATIONS = [s.location for s in DEPLOYMENT.sensors]
ranges = st.tuples(st.floats(-50, 50), st.floats(0, 100)).map(
    lambda r: (min(r), max(r))
)


@st.composite
def identified(draw):
    """Deployment sensors, sometimes with an id nobody advertises."""
    sensors = draw(
        st.sets(st.sampled_from(SENSORS + ["ghost1", "ghost2"]), min_size=1, max_size=3)
    )
    return IdentifiedSubscription.from_ranges(
        "q",
        {s: (draw(st.sampled_from(ATTRIBUTES)), *draw(ranges)) for s in sensors},
        draw(st.sampled_from([2.0, 5.0])),
    )


@st.composite
def abstract(draw):
    """Attributes over everywhere or a box around some sensors; a small
    box often lacks an attribute."""
    region = draw(
        st.just(EVERYWHERE)
        | st.builds(
            bounding_rect,
            st.lists(st.sampled_from(LOCATIONS), min_size=1, max_size=3),
            st.sampled_from([0.0, 0.5, 3.0, 30.0]),
        )
    )
    attributes = draw(st.sets(st.sampled_from(ATTRIBUTES), min_size=1, max_size=3))
    return AbstractSubscription.from_ranges(
        "q",
        {a: draw(ranges) for a in attributes},
        region,
        draw(st.sampled_from([2.0, 5.0])),
        draw(st.sampled_from([float("inf"), 1.5, 40.0])),
    )


@pytest.fixture(scope="module")
def user_and_centre():
    """A user node after the advertisement flood, and a node of the
    centralized baseline (it resolves as the centre does)."""
    approaches = all_approaches()
    fsf = make_network(DEPLOYMENT, approaches["fsf"])
    centralized = make_network(DEPLOYMENT, approaches["centralized"])
    return fsf.nodes["r1"], centralized.nodes["r1"], itertools.count()


def resolved(node, subscription):
    """The root ``node.subscribe`` registered, or None if it dropped it."""
    dropped = len(node.network.dropped_subscriptions)
    node.subscribe(subscription)
    if len(node.network.dropped_subscriptions) > dropped:
        return None
    registered, root = node.local_subscriptions[-1]
    assert registered is subscription
    return root


def shape(operator):
    if operator is None:
        return None
    return operator.slots, operator.delta_t, operator.delta_l


@given(subscription=identified() | abstract())
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_node_centre_and_oracle_resolve_alike(user_and_centre, subscription):
    user, centre, ids = user_and_centre
    n = next(ids)
    shapes = [
        shape(resolved(user, replace(subscription, sub_id=f"u{n}"))),
        shape(resolved(centre, replace(subscription, sub_id=f"c{n}"))),
        shape(oracle_operator(subscription, DEPLOYMENT)),
    ]
    assert shapes[0] == shapes[1] == shapes[2]


def test_the_resolver_keeps_and_drops_both_flavours():
    """The property above is not vacuous: the deployment-wide table
    knows every sensor, and the resolver keeps some queries of each
    flavour and drops others."""
    ghost = IdentifiedSubscription.from_ranges("g", {"ghost1": ("t", 0, 1)}, 5.0)
    assert oracle_operator(ghost, DEPLOYMENT) is None
    assert oracle_operator(absent_source_query(DEPLOYMENT), DEPLOYMENT) is None
    every = Query().where(PRESENT, 0, 1).where(ABSENT, 0, 1).near(EVERYWHERE)
    kept = oracle_operator(every.build(DEPLOYMENT, "e"), DEPLOYMENT)
    assert {slot.slot_id for slot in kept.slots} == {PRESENT, ABSENT}
    assert DEPLOYMENT.advertisements.known_ids == set(SENSORS)
