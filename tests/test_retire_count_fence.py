"""Count fence for retirement: a cancel reads only its own records.

``SubscriptionStore.remove_subscription`` runs at every hop of a
teardown.  It finds the cancelled subscription's records through the
sub id -> records map ``add`` keeps, so the records it examines per
cancel do not grow with the number of other subscriptions in the store
(Lee et al.'s rule, PAPERS.md: an update touches only what it
concerns).  A scan of every stored record per hop would.

The count is deterministic: a test-local record class counts each
distinct record whose ``operator`` is read while a removal runs.  Two
smoke-size program shapes run at N and 4N — one like the benchmark's
``shared_templates`` (N generated templates that stay, three clones of
each that retire), one like ``lifecycle_churn`` (a static prefix plus
Poisson admissions, each retired after its hold) — and the per-cancel
count at 4N stays within ``GROWTH`` of the count at N.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.network.node as node_module
from repro.model.subscriptions import IdentifiedSubscription
from repro.network.network import Network
from repro.network.node import StoredOperator, SubscriptionStore
from repro.network.topology import build_deployment
from repro.workload.program import ProgramQuery, WorkloadProgram, execute_program
from repro.workload.scenarios import ADMIT_RETIRE
from repro.workload.sensorscope import ReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

GROWTH = 1.5
"""Largest allowed per-cancel ratio between 4N and N (a full scan
reads about 4x)."""

N = 6


def templates_program(n):
    """``n`` templates admitted for good, three retiring clones each."""
    deployment = build_deployment(24, 3, seed=0)
    base = WorkloadProgram(
        subscriptions=SubscriptionWorkloadConfig(
            n_subscriptions=n, attrs_min=3, attrs_max=5
        ),
        replay=ReplayConfig(rounds=3),
    )
    users = deployment.user_nodes
    clones = tuple(
        ProgramQuery(
            IdentifiedSubscription(
                f"t{t}c{c}", item.subscription.filters, item.subscription.delta_t
            ),
            retire=0.5 * (1 + t + n * c),  # program clock: 0 = replay start
            at=users[(t + c) % len(users)],
        )
        for c in range(1, 4)
        for t, item in enumerate(base.source(deployment).workload)
    )
    return replace(base, queries=clones).compile(deployment)


def lifecycle_program(n):
    """A static prefix of ``n`` plus ``4n/3`` admissions at a rate
    scaled with ``n``, each retired after its hold."""
    scenario = replace(
        ADMIT_RETIRE,
        dynamic=replace(ADMIT_RETIRE.dynamic, rounds_per_day=5),
        lifecycle=replace(
            ADMIT_RETIRE.lifecycle,
            admit_rate=n / 12,
            hold=60.0,
            max_admissions=4 * n // 3,
        ),
    )
    deployment = scenario.deployment()
    return scenario.program(n).compile(deployment)


def examined_per_cancel(compiled, monkeypatch):
    examined: set[int] | None = None
    total = 0
    cancels = 0
    slot = StoredOperator.operator

    class CountedRecord(StoredOperator):
        __slots__ = ()

        @property
        def operator(self):
            if examined is not None:
                examined.add(id(self))
            return slot.__get__(self)

        @operator.setter
        def operator(self, value):
            slot.__set__(self, value)

    remove = SubscriptionStore.remove_subscription

    def counted(store, sub_id):
        nonlocal examined, total
        examined = set()
        try:
            return remove(store, sub_id)
        finally:
            total += len(examined)
            examined = None

    cancel = Network.cancel_subscription

    def cancel_seen(network, node_id, sub_id):
        nonlocal cancels
        cancels += 1
        return cancel(network, node_id, sub_id)

    monkeypatch.setattr(node_module, "StoredOperator", CountedRecord)
    monkeypatch.setattr(SubscriptionStore, "remove_subscription", counted)
    monkeypatch.setattr(Network, "cancel_subscription", cancel_seen)
    execute_program(compiled, "naive")
    monkeypatch.undo()
    assert cancels > 0
    return total / cancels


@pytest.mark.parametrize(
    "shape", [templates_program, lifecycle_program], ids=["templates", "lifecycle"]
)
def test_records_examined_per_cancel_do_not_grow_with_n(shape, monkeypatch):
    small = examined_per_cancel(shape(N), monkeypatch)
    large = examined_per_cancel(shape(4 * N), monkeypatch)
    assert small > 0
    assert large <= GROWTH * small, (small, large)
