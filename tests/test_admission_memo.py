"""Fences for an admission hop that derives each operator shape once.

* The advertisement table's memoised split equals a fresh
  :meth:`AdvertisementTable.partition_by_origin` after every write, and
  a crashed and recovered broker splits as it did before the crash.
* A :class:`Slot` caches its hash; pickled into a process with another
  ``PYTHONHASHSEED`` it still equals, and hashes like, a slot built
  there.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.advertisements import Advertisement, AdvertisementTable
from repro.model.intervals import Interval
from repro.model.locations import Location
from repro.model.operators import CorrelationOperator, Slot
from repro.network.network import Network
from repro.network.reliability import ReliabilityConfig
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.sim import Simulator

SENSORS = [f"d{i}" for i in range(6)]
ORIGINS = ["m0", "m1", "m2", AdvertisementTable.LOCAL]


def fresh_split(table, sensors, exclude):
    return tuple(
        (origin, frozenset(group))
        for origin, group in sorted(table.partition_by_origin(sensors).items())
        if origin != exclude
    )


def assert_memo_is_fresh(table):
    for mask in range(1, 1 << len(SENSORS)):
        sensors = frozenset(s for i, s in enumerate(SENSORS) if mask >> i & 1)
        for exclude in (None, *ORIGINS):
            assert table.split(sensors, exclude) == fresh_split(table, sensors, exclude)


step = st.tuples(
    st.sampled_from(["add", "remove", "move"]),
    st.sampled_from(SENSORS),
    st.sampled_from(ORIGINS),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(step, max_size=12))
def test_memoised_split_equals_a_fresh_partition_after_every_step(steps):
    table = AdvertisementTable()
    assert_memo_is_fresh(table)
    for kind, sensor_id, origin in steps:
        if kind == "remove":
            table.remove(sensor_id)
        else:
            # "move": the same sensor re-advertised from another origin.
            if kind == "move" and sensor_id in table.known_ids:
                (known,) = table.partition_by_origin([sensor_id])
                origin = ORIGINS[(ORIGINS.index(known) + 1) % len(ORIGINS)]
            table.add(origin, Advertisement(sensor_id, "t", Location(0.0, 0.0)))
        assert_memo_is_fresh(table)  # filled before the next write


def test_split_is_unchanged_after_crash_and_recover():
    deployment = build_deployment(24, 3, seed=0)
    network = Network(deployment, Simulator(seed=0), reliability=ReliabilityConfig())
    all_approaches()["naive"].populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    node_id = max(network.nodes, key=lambda n: len(network.neighbors(n)))
    node = network.nodes[node_id]
    everything = frozenset(p.sensor_id for p in deployment.sensors)
    sets = [everything] + [
        frozenset(sorted(everything)[i::k]) for k in (2, 3) for i in range(k)
    ]
    keys = [(s, x) for s in sets for x in (None, *sorted(network.neighbors(node_id)))]
    before = {key: node.ads.split(*key) for key in keys}
    assert any(len(split) > 1 for split in before.values())
    network.crash_node(node_id)
    network.recover_node(node_id)
    network.run_to_quiescence()
    network.schedule_refresh([(network.sim.now + 1.0, 1)])
    network.run_to_quiescence()
    for key, split in before.items():
        assert node.ads.split(*key) == split == fresh_split(node.ads, *key)


# ---------------------------------------------------------------------------
# the cached slot hash across processes
# ---------------------------------------------------------------------------
_UNPICKLE = """
import pickle, sys
from repro.model.intervals import Interval
from repro.model.operators import CorrelationOperator, Slot
slot, operator = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = Slot("d1", "t", Interval(1.0, 2.5), frozenset({"d1", "d2"}))
assert slot == fresh and hash(slot) == hash(fresh), "slot"
assert {fresh: 1}[slot] == 1
twin = CorrelationOperator("q", "u", [fresh], 3.0)
assert operator == twin and hash(operator) == hash(twin), "operator"
print("ok", hash(fresh))
"""


def test_a_pickled_slot_rehashes_under_the_workers_seed():
    slot = Slot("d1", "t", Interval(1.0, 2.5), frozenset({"d1", "d2"}))
    payload = pickle.dumps((slot, CorrelationOperator("q", "u", [slot], 3.0))).hex()
    src = str(Path(__file__).resolve().parents[1] / "src")
    hashes = set()
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", _UNPICKLE],
            input=payload,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            check=True,
        )
        word, value = out.stdout.split()
        assert word == "ok"
        hashes.add(value)
    assert len(hashes) == 2  # the seeds differ, so the cached hash must
