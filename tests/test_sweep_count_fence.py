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
slide back fails here, not in a benchmark.  Multi-join made 1304 (1106
found) while it still kept a matcher behind every whole operator and
leaf filter it stores; it reads none of those, so since PR 23 it stores
them without one.

``test_no_matcher_nobody_reads`` is the count-free form of the same
rule: every matcher an engine holds after a run belongs to a record an
event path looks up in the hit map.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro.baselines.multijoin import JOIN, MultiJoinNode
from repro.matching import OperatorMatcher
from repro.workload.program import execute_program
from repro.workload.scenarios import SMALL
from repro.workload.sensorscope import ReplayConfig

# cell -> (sweeps made, sweeps that found a match)
PINNED = {
    "naive": (277, 277),
    "operator_placement": (277, 277),
    "fsf": (277, 277),
    "centralized": (18, 18),
    # Every sweep finds a match here too.  A ring join a relay retains
    # while the arrival that first feeds it is being handled is swept
    # at once behind the ingest's pre-check; without it those were 198
    # fruitless sweeps (753 made, 555 found).  Only binary joins, ring
    # joins and local roots are swept: whole multi-joins and leaf
    # filters hold no matcher.
    "multijoin": (555, 555),
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


def readers(node):
    """The matchers some event path of ``node`` looks up in a hit map."""
    read = set(node._local_roots.streams)  # deliver_local_matches
    if isinstance(node, MultiJoinNode):
        # The role walk reads a record's own matcher only as JOIN (a
        # covered binary join becomes one the moment its cover goes) and
        # a relay's ring entries; it never touches ``streams``.
        for store in node.stores.values():
            read.update(
                record.matcher
                for record in store.records()
                if record.operator.is_binary_join
                and (record.covered or node.roles[record.operator.op_id] == JOIN)
            )
        for ring in node._ring_cache.values():
            read.update(matcher for _, matcher in ring if matcher is not None)
    else:
        # hit_links / the centre walk the hit map through ``streams``.
        for store in node.stores.values():
            read.update(store.streams)
    return read


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_no_matcher_nobody_reads(cell):
    execution = execute_program(smoke_point(), cell)
    held = 0
    for node_id, node in sorted(execution.session.network.nodes.items()):
        engine = node.matching
        matchers = {engine.matcher(op) for op in engine.operators()}
        assert len(matchers) == engine.n_matchers
        unread = matchers - readers(node)
        assert not unread, (node_id, [m.structure for m in unread])
        held += len(matchers)
    assert held  # the run left something to check
