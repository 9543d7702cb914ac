"""Counted fence: the clones of one question retain one stored answer.

``compute_truth`` answers each distinct ``(match structure, lifetime)``
once, and every later clone holds that answer by reference: the first
truth's two frozensets and its operator's ``slots`` tuple.  This test
counts, with ``tracemalloc`` bytes and blocks and no clock, what a
program's ``truth()`` leaves allocated for one template asked by few
and by many clones at different user nodes.  The difference per clone
must be a small constant (its truth record, its operator and that
operator's cached hash), far below one copy of the template's sets.
Copying the sets per clone, or rebuilding a clone's slots, breaks it.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from dataclasses import replace

from repro.model.filters import IdentifiedFilter, SimpleFilter
from repro.model.intervals import Interval
from repro.model.subscriptions import IdentifiedSubscription
from repro.network.topology import build_deployment
from repro.workload.program import ProgramQuery, WorkloadProgram
from repro.workload.sensorscope import ReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

FEW, MANY = 2, 34
MAX_BYTES_PER_CLONE = 512
MAX_BLOCKS_PER_CLONE = 4

DEPLOYMENT = build_deployment(24, 3, seed=0)
# Every reading of three sensors fills a slot: a template with a large
# truth, so one copy of its sets dwarfs a clone's constant.
TEMPLATE = IdentifiedSubscription(
    "t",
    (
        IdentifiedFilter(
            s.sensor_id, SimpleFilter(s.attribute.name, Interval(-1e9, 1e9))
        )
        for s in DEPLOYMENT.sensors[:3]
    ),
    30.0,
)


def compiled(n_clones: int):
    """The template plus ``n_clones - 1`` clones, cycling the user nodes."""
    users = DEPLOYMENT.user_nodes
    queries = tuple(
        ProgramQuery(
            replace(TEMPLATE, sub_id=f"t{c:03d}") if c else TEMPLATE,
            at=users[c % len(users)],
        )
        for c in range(n_clones)
    )
    program = WorkloadProgram(
        SubscriptionWorkloadConfig(0),
        replay=ReplayConfig(rounds=40),
        queries=queries,
    )
    return program.compile(DEPLOYMENT)


def retained(program):
    """``program.truth()`` and the bytes and blocks it keeps allocated."""
    program.truth()  # first-call caches belong to no clone
    gc.collect()
    tracemalloc.start()
    truths = program.truth()
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    ).statistics("filename")
    return truths, sum(s.size for s in stats), sum(s.count for s in stats)


def test_a_clone_retains_a_small_constant():
    few, few_bytes, few_blocks = retained(compiled(FEW))
    many, many_bytes, many_blocks = retained(compiled(MANY))
    assert len(few) == FEW and len(many) == MANY
    template = many["t"]
    assert len(template.triggers) > 100
    one_copy = sys.getsizeof(set(template.triggers)) + sys.getsizeof(
        set(template.participants)
    )
    per_clone_bytes = (many_bytes - few_bytes) / (MANY - FEW)
    per_clone_blocks = (many_blocks - few_blocks) / (MANY - FEW)
    assert per_clone_blocks <= MAX_BLOCKS_PER_CLONE, per_clone_blocks
    assert per_clone_bytes <= MAX_BYTES_PER_CLONE, per_clone_bytes
    assert 10 * MAX_BYTES_PER_CLONE < one_copy, one_copy
