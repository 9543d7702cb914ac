"""Count fence for arrival-driven matching (counts repeat exactly, no clock).

Nodes route the hit map the engine builds at ingest; nobody probes a
stored operator per record.  On the smoke-size ``small_static`` point of
the repo benchmark (the ``SMALL`` scenario, 24 subscriptions, 5 rounds)
the number of sweeps — calls of ``OperatorMatcher.matches_involving``,
the name ``benchmarks/e2e/trace.py`` counts as ``matching.probes`` — is
pinned per cell, and every sweep the engine makes at ingest finds a
match: the pre-check leaves nothing fruitless.  With per-record probing
(the parent of PR 19) the same cells made 1402 (naive), 1402
(operator_placement), 1397 (fsf), 475 (centralized) and 1793
(multijoin) calls, of which 277, 277, 275, 18 and 553 found a match: a
slide back fails here, not in a benchmark.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro.matching import OperatorMatcher
from repro.workload.program import execute_program
from repro.workload.scenarios import SMALL
from repro.workload.sensorscope import ReplayConfig

# cell -> (sweeps made, sweeps that found a match)
PINNED = {
    "naive": (277, 277),
    "operator_placement": (277, 277),
    "fsf": (275, 275),
    "centralized": (18, 18),
    # Every sweep made at ingest finds a match here too; the other 198
    # are the one direct sweep of each ring join a relay retains while
    # the arrival that first feeds it is being handled.
    "multijoin": (1304, 1106),
}


@functools.cache
def smoke_point():
    scenario = replace(SMALL, replay=replace(ReplayConfig(), rounds=5))
    deployment = scenario.deployment()
    program = scenario.program(24)
    return program.compile(deployment, program.source(deployment))


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_sweeps_per_cell_are_pinned(cell, monkeypatch):
    made = found = 0
    sweep = OperatorMatcher.matches_involving

    def counted(matcher, event, own=None):
        nonlocal made, found
        result = sweep(matcher, event, own)
        made += 1
        found += bool(result)
        return result

    # Class level, like the trace: the engine must reach its sweeps
    # through this name for matching.probes to count them.
    monkeypatch.setattr(OperatorMatcher, "matches_involving", counted)
    execute_program(smoke_point(), cell)
    assert (made, found) == PINNED[cell]
