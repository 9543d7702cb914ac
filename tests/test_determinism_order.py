"""Regression tests for the hash-order hazards the linter uncovered.

These lock in the ``sorted(...)`` bookkeeping fixes: per-sensor index
insertion order must be the lexicographic sensor order, never the
``PYTHONHASHSEED``-dependent iteration order of a ``frozenset``.  Each
test builds an operator whose sensor ids are deliberately chosen so
that set-iteration order and sorted order disagree under typical hash
seeds, then asserts the index keys (and bucket contents after partial
removal) are in sorted order.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.core import filter_split_forward_approach
from repro.matching import MatchingEngine
from repro.model import IdentifiedSubscription, Interval
from repro.model.operators import CorrelationOperator, Slot
from repro.network.eventstore import EventStore
from repro.network.node import LOCAL, SubscriptionStore

from deployments import line_deployment, make_network

SENSOR_IDS = ("d9_z", "d0_a", "d5_m", "d2_k", "d7_b", "d1_q", "d4_x")


def abstract_operator(sub_id: str = "q") -> CorrelationOperator:
    """One abstract slot fillable by many sensors + one identified slot."""
    wide = Slot("attr0", "attr0", Interval(0.0, 10.0), frozenset(SENSOR_IDS))
    single = Slot("d3_s", "t", Interval(0.0, 10.0), frozenset({"d3_s"}))
    return CorrelationOperator(sub_id, "user", [wide, single], 5.0, float("inf"))


def empty_store() -> SubscriptionStore:
    return SubscriptionStore(MatchingEngine(EventStore(validity=100.0)))


def test_subscription_store_by_sensor_is_sorted():
    store = empty_store()
    store.add(abstract_operator(), covered=False)
    keys = list(store._built_index())
    assert keys == sorted(keys)
    assert set(keys) == set(SENSOR_IDS) | {"d3_s"}


def test_subscription_store_removal_keeps_sorted_buckets():
    store = empty_store()
    store.add(abstract_operator("qa"), covered=False)
    store.add(abstract_operator("qb"), covered=False)
    store.add(abstract_operator("qc"), covered=True)  # never filed
    store._built_index()  # read first: the removals below edit it
    store.remove_subscription("qa")
    keys = list(store._built_index())
    assert keys == sorted(keys)
    assert all(
        r.operator.subscription_id == "qb"
        for bucket in store._built_index().values()
        for r, _slot in bucket
    )
    store.remove_subscription("qb")
    assert store._built_index() == {}
    store.remove_subscription("qc")
    assert store._built_index() == {}


#: Registration walks slots in declaration order and each slot's sensor
#: frozenset in sorted order, so the index key order is fully determined
#: by the operator — never by PYTHONHASHSEED.
EXPECTED_INDEX_ORDER = sorted(SENSOR_IDS) + ["d3_s"]


def test_matching_engine_ingest_index_is_sorted():
    engine = MatchingEngine(EventStore(validity=100.0))
    engine.retain(abstract_operator())
    assert list(engine._ingest_index) == EXPECTED_INDEX_ORDER


def test_matching_engine_release_drains_index():
    engine = MatchingEngine(EventStore(validity=100.0))
    operator = abstract_operator()
    engine.retain(operator)
    engine.release(operator)
    assert engine._ingest_index == {}


def test_operator_matcher_by_sensor_is_sorted():
    """The matcher keeps no sensor index of its own: backfill and
    teardown walk the sensors it derives from its slots, sorted."""
    engine = MatchingEngine(EventStore(validity=100.0))
    matcher = engine.retain(abstract_operator())
    assert matcher.sensors() == sorted(EXPECTED_INDEX_ORDER)


def test_node_local_by_sensor_is_sorted():
    net = make_network(line_deployment(), filter_split_forward_approach())
    subscription = IdentifiedSubscription.from_ranges(
        "s",
        {k: ("t", 0.0, 10.0) for k in ("c", "a", "b")},
        delta_t=5.0,
    )
    net.register_subscription("u2", subscription)
    net.run_to_quiescence()
    node = net.nodes["u2"]
    assert list(node.stores[LOCAL]._built_index()) == ["a", "b", "c"]
    assert list(node._local_roots._built_index()) == ["a", "b", "c"]
    assert node.unsubscribe("s")
    net.run_to_quiescence()
    assert node.stores[LOCAL]._built_index() == {}
    assert node._local_roots._built_index() == {}


_INDEX_DUMP = """
from repro.network.node import LOCAL, SubscriptionStore
from test_determinism_order import abstract_operator, empty_store
store = empty_store()
for sub_id in ("qa", "qb"):
    store.add(abstract_operator(sub_id), covered=False)
print([
    (sensor, [(r.operator.op_id, slot.slot_id) for r, slot in bucket])
    for sensor, bucket in store._built_index().items()
])
"""


def test_registration_order_is_hash_seed_independent():
    """The visible symptom the fixes remove: the index built from the
    same operators is byte-identical under different hash seeds, keys
    and bucket order alike."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    dumps = {
        subprocess.run(
            [sys.executable, "-c", _INDEX_DUMP],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1", "2")
    }
    assert len(dumps) == 1
