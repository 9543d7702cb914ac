"""Count fence for the ingest index: one registration per slot and sensor.

A node's ``MatchingEngine`` keeps one registration list per sensor:
each live matcher's slot drawing from the sensor is stored there once,
as ``(attribute, lo, hi, (timeline, matcher, slot index))``.  So the
entries across all lists equal the live (matcher slot, sensor) pairs,
whatever else the node holds, and admitting or retiring an operator
writes only its own matcher's entries (Lee et al.'s rule, PAPERS.md:
an update touches only what it concerns).  An index that copied
payloads per value segment, or rebuilt every list at each admission,
breaks one of the two.

Count, do not time: the checks wrap ``retain`` / ``release`` of every
engine while two smoke-size program shapes run at N and 4N — the
``shared_templates`` and ``lifecycle_churn`` shapes of
``tests/test_retire_count_fence.py`` — across all five approaches.
"""

from __future__ import annotations

import pytest

from repro.matching import MatchingEngine
from repro.matching.engine import match_structure
from repro.workload.program import execute_program

from test_retire_count_fence import N, lifecycle_program, templates_program

APPROACH_KEYS = ("naive", "operator_placement", "multijoin", "fsf", "centralized")


def entries(engine) -> int:
    return sum(len(registrations) for registrations in engine._ingest_index.values())


def live_pairs(engine) -> int:
    return sum(
        len(slot.sensors)
        for matcher in engine._shared.values()
        for slot in matcher.structure[0]
    )


def others(engine, matcher) -> dict[str, list[int]]:
    """Identities of every entry not ``matcher``'s, per sensor holding
    any."""
    kept = {
        sensor_id: [id(r) for r in registrations if r[3][1] is not matcher]
        for sensor_id, registrations in engine._ingest_index.items()
    }
    return {sensor_id: ids for sensor_id, ids in kept.items() if ids}


def own(engine, matcher) -> int:
    return sum(
        r[3][1] is matcher
        for registrations in engine._ingest_index.values()
        for r in registrations
    )


def fenced_run(compiled, approach, monkeypatch) -> dict[str, int]:
    """Run one cell with every retain and release checked; returns how
    many of each created or tore down a matcher."""
    counts = {"created": 0, "torn down": 0}
    retain = MatchingEngine.retain
    release = MatchingEngine.release

    def checked_retain(engine, operator):
        shared = engine._shared.get(match_structure(operator))
        before = others(engine, shared)  # with no matcher yet: everything
        mine = own(engine, shared)
        matcher = retain(engine, operator)
        if shared is None:
            counts["created"] += 1
            mine = sum(len(slot.sensors) for slot in matcher.structure[0])
        assert others(engine, matcher) == before, approach
        assert own(engine, matcher) == mine, approach
        assert entries(engine) == live_pairs(engine), approach
        return matcher

    def checked_release(engine, operator):
        matcher = engine.matcher(operator)
        before = others(engine, matcher)
        mine = own(engine, matcher)
        release(engine, operator)
        if matcher.structure not in engine._shared:
            counts["torn down"] += 1
            mine = 0
        assert others(engine, matcher) == before, approach
        assert own(engine, matcher) == mine, approach
        assert entries(engine) == live_pairs(engine), approach

    monkeypatch.setattr(MatchingEngine, "retain", checked_retain)
    monkeypatch.setattr(MatchingEngine, "release", checked_release)
    try:
        execute_program(compiled, approach)
    finally:
        monkeypatch.undo()
    return counts


@pytest.mark.parametrize("size", [N, 4 * N], ids=["N", "4N"])
@pytest.mark.parametrize(
    "shape", [templates_program, lifecycle_program], ids=["templates", "lifecycle"]
)
def test_ingest_index_holds_one_entry_per_live_slot_and_sensor(shape, size, monkeypatch):
    compiled = shape(size)
    created = torn_down = 0
    for approach in APPROACH_KEYS:
        counts = fenced_run(compiled, approach, monkeypatch)
        created += counts["created"]
        torn_down += counts["torn down"]
    assert created and torn_down
