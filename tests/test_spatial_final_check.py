"""The replay matcher's user-node final check == reference scan.

The recall metric (and ``QueryHandle.matches``) replays the user node's
final local check over delivered events on the offline matcher
:func:`repro.matching.engine.replay` builds — the one the oracle asks
over the published stream.  These tests machine-check its decisions
identical to the reference :func:`repro.model.matching.instance_exists`
on randomized abstract workloads — windows dense and sparse, delta_l
from "nothing correlates" to unbounded — check the members it
reconstructs against a brute-force enumeration, and pin the metric
end-to-end.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro import Query, Session
from repro.matching.engine import replay
from repro.metrics.oracle import EventIndex
from repro.metrics.recall import measure_recall
from repro.model.events import SimpleEvent
from repro.model.intervals import Interval
from repro.model.locations import Location, RectRegion
from repro.model.matching import instance_exists, window_candidates
from repro.model.operators import CorrelationOperator, Slot


def random_operator(rng, n_slots, n_sensors_per_slot, delta_l):
    slots = []
    for i in range(n_slots):
        sensors = frozenset(
            f"a{i}_s{j}" for j in range(n_sensors_per_slot)
        )
        slots.append(Slot(f"attr{i}", f"attr{i}", Interval(0.0, 100.0), sensors))
    return CorrelationOperator("q", "user", slots, delta_t=5.0, delta_l=delta_l)


def random_events(rng, operator, n_events, area, t_span):
    events = []
    seq = 0
    all_sensors = sorted(operator.sensors)
    attr_of = {
        sensor: slot.attribute
        for slot in operator.slots
        for sensor in slot.sensors
    }
    for _ in range(n_events):
        sensor = all_sensors[int(rng.integers(len(all_sensors)))]
        events.append(
            SimpleEvent(
                sensor,
                attr_of[sensor],
                Location(
                    float(rng.uniform(0, area)), float(rng.uniform(0, area))
                ),
                float(rng.uniform(-10.0, 110.0)),  # some miss the filter
                timestamp=float(rng.uniform(0.0, t_span)),
                seq=seq,
            )
        )
        seq += 1
    return events


@pytest.mark.parametrize("case", range(24))
def test_grid_decision_equals_reference(case):
    """Every candidate trigger decides identically under replay & scan."""
    rng = np.random.default_rng(case * 101 + 7)
    n_slots = int(rng.integers(2, 5))
    delta_l = float(rng.choice([3.0, 8.0, 25.0, math.inf]))
    operator = random_operator(rng, n_slots, int(rng.integers(1, 4)), delta_l)
    events = random_events(
        rng, operator, n_events=int(rng.integers(20, 120)), area=30.0, t_span=40.0
    )
    provider = EventIndex(events)
    matcher = replay(operator, events)
    decided = 0
    for trigger in events:
        if operator.slot_for_event(trigger) is None:
            continue
        reference = instance_exists(operator, provider, trigger)
        assert matcher.instance_exists(trigger) == reference, (case, trigger)
        decided += 1
    assert decided > 0, "case produced no candidate triggers"


def test_grid_handles_unstored_trigger():
    """Like the reference, the trigger need not be stored itself."""
    rng = np.random.default_rng(5)
    operator = random_operator(rng, 2, 1, delta_l=5.0)
    events = random_events(rng, operator, 30, area=8.0, t_span=20.0)
    provider = EventIndex(events)
    sensor = sorted(operator.sensors)[0]
    attribute = operator.slots[0].attribute
    phantom = SimpleEvent(
        sensor, attribute, Location(4.0, 4.0), 50.0, timestamp=10.0, seq=999
    )
    assert replay(operator, events).instance_exists(phantom) == instance_exists(
        operator, provider, phantom
    )


def brute_force_members(operator, events, trigger):
    """Per-slot member keys of every valid combination with maximum
    member ``trigger``, by enumeration: the product of the reference's
    window candidates, the trigger's slot pinned to the trigger, every
    pair closer than ``delta_l``.  None where no combination is valid."""
    own = operator.slot_for_event(trigger)
    if own is None:
        return None
    windows = window_candidates(operator, EventIndex(events), trigger.timestamp)
    if not all(windows.values()):
        return None
    windows[own.slot_id] = [trigger]
    slot_ids = sorted(windows)
    members = {slot_id: set() for slot_id in slot_ids}
    for combination in itertools.product(*(windows[s] for s in slot_ids)):
        if all(
            a.location.distance_to(b.location) < operator.delta_l
            for a, b in itertools.combinations(combination, 2)
        ):
            for slot_id, event in zip(slot_ids, combination):
                members[slot_id].add(event.key)
    return members if members[own.slot_id] else None


def member_keys(found):
    if found is None:
        return None
    return {slot_id: {e.key for e in events} for slot_id, events in found.items()}


@pytest.mark.parametrize("case", range(16))
def test_instance_members_equal_a_brute_force_enumeration(case):
    """``instance_members(trigger)`` holds exactly the members of the
    valid combinations containing the trigger, for stored triggers and
    for an unstored one of each slot, at finite and unbounded delta_l."""
    rng = np.random.default_rng(case * 31 + 3)
    delta_l = (3.0, 8.0, 25.0, math.inf)[case % 4]
    operator = random_operator(rng, int(rng.integers(2, 4)), 2, delta_l)
    events = random_events(
        rng, operator, n_events=int(rng.integers(40, 100)), area=12.0, t_span=40.0
    )
    phantoms = [
        SimpleEvent(
            sorted(slot.sensors)[0],
            slot.attribute,
            Location(6.0, 6.0),
            50.0,
            timestamp=float(t),
            seq=1000 + t,
        )
        for slot in operator.slots
        for t in (10, 25)
    ]
    matcher = replay(operator, events)
    found = 0
    for trigger in events + phantoms:
        want = brute_force_members(operator, events, trigger)
        assert member_keys(matcher.instance_members(trigger)) == want, (case, trigger)
        assert matcher.instance_exists(trigger) == (want is not None)
        found += want is not None
    assert found > 0, "case produced no match instance"


def test_recall_metric_end_to_end_on_abstract_workload():
    """measure_recall (replay matcher) equals a reference-scan recount."""
    session = Session.create(approach="fsf", nodes=30, groups=4, seed=3)
    region = RectRegion(Interval(-1e6, 1e6), Interval(-1e6, 1e6))
    handles = []
    for i, delta_l in enumerate((5.0, 60.0, math.inf)):
        query = (
            Query()
            .named(f"abs{i}")
            .where("wind_speed", 0.0, 50.0)
            .where("relative_humidity", 0.0, 100.0)
            .within(6.0)
        )
        if math.isfinite(delta_l):
            query = query.near(region, delta_l)
        handles.append(session.submit(query))
    rng = np.random.default_rng(17)
    events = []
    t0 = session.now + 50.0
    for p in session.deployment.sensors:
        if p.attribute.name not in ("wind_speed", "relative_humidity"):
            continue
        for k in range(6):
            events.append(
                session.ingest(
                    p.sensor_id,
                    float(rng.uniform(0.0, 60.0)),
                    timestamp=t0 + float(rng.uniform(0.0, 30.0)),
                    seq=k,
                )
            )
    session.drain()
    truths = session.truth(events)
    report = measure_recall(truths, session.delivery)

    # Recount with the reference scan in place of the replay matcher.
    delivered_instances = 0
    for sub_id, truth in truths.items():
        delivered = session.delivery.delivered(sub_id)
        view = EventIndex(delivered.values())
        for trigger_key in truth.triggers:
            trigger = delivered.get(trigger_key)
            if trigger is not None and instance_exists(
                truth.operator, view, trigger
            ):
                delivered_instances += 1
    assert report.delivered_instances == delivered_instances
    assert report.true_instances == sum(t.n_instances for t in truths.values())
    assert report.true_instances > 0
    # The session saw real spatial filtering: the tight query delivers a
    # strict subset of the unbounded one's instances.
    assert truths["abs0"].n_instances <= truths["abs2"].n_instances
