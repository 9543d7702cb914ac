"""Fences for an admission hop that derives each operator shape once.

* The advertisement table's memoised split equals a fresh
  :meth:`AdvertisementTable.partition_by_origin` after every write, and
  a crashed and recovered broker splits as it did before the crash.
* A :class:`Slot` caches its hash; pickled into a process with another
  ``PYTHONHASHSEED`` it still equals, and hashes like, a slot built
  there.
* ``decide_product`` decides in one pass per dimension and samples with
  numpy; ``decide_product_loop`` below is the old per-row loop, kept as
  its oracle: same decision and witness, same generator state, same
  ``checks`` and ``sampled_points``.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
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
from repro.subsumption.setfilter import ProbabilisticSetFilter, SetFilterDecision

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
            if kind == "move" and table.knows(sensor_id):
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


# ---------------------------------------------------------------------------
# decide_product against the old loop
# ---------------------------------------------------------------------------
def decide_product_loop(self, target, covers_per_dim):
    """The per-dimension, per-corner, per-row loop ``decide_product``
    replaced (the oracle)."""
    self.checks += 1
    if len(covers_per_dim) != len(target):
        raise ValueError("one candidate list per target dimension required")
    live = []
    for iv, candidates in zip(target, covers_per_dim):
        lo, hi = iv.lo, iv.hi
        relevant = [c for c in candidates if c.lo <= hi and lo <= c.hi and c.lo <= c.hi]
        if lo > hi or not relevant:
            corner = tuple(t.lo for t in target)
            return SetFilterDecision(False, True, 0, witness=corner)
        live.append(relevant)
    if all(
        any(c.lo <= iv.lo and iv.hi <= c.hi for c in cands)
        for iv, cands in zip(target, live)
    ):
        return SetFilterDecision(True, True, 0)
    for dim, (iv, cands) in enumerate(zip(target, live)):
        for endpoint in (iv.lo, iv.hi):
            if not any(c.lo <= endpoint <= c.hi for c in cands):
                witness = tuple(
                    endpoint if d == dim else target[d].lo for d in range(len(target))
                )
                return SetFilterDecision(False, True, 0, witness=witness)
    dims = len(target)
    lows = np.array([iv.lo for iv in target])
    spans = np.array([iv.hi - iv.lo for iv in target])
    u = self._rng.random((self.samples, dims))
    points = lows + u * spans
    self.sampled_points += self.samples
    for row in points:
        for x, cands in zip(row, live):
            if not any(c.lo <= x <= c.hi for c in cands):
                return SetFilterDecision(False, True, self.samples, tuple(row))
    return SetFilterDecision(True, False, self.samples)


def _exit(decision):
    if decision.samples_used:
        return "sampled-covered" if decision.covered else "sampled-witness"
    if decision.covered:
        return "shortcut"
    return "corner"


def _random_case(rng):
    """A target box and per-dimension candidates on a coarse grid, so
    shared endpoints, empty intervals and exact containment all occur."""
    dims = int(rng.integers(1, 5))

    def interval():
        lo, hi = sorted(rng.integers(0, 9, size=2) / 2.0)
        if rng.random() < 0.04:
            lo, hi = hi + 1.0, lo  # empty
        return Interval(float(lo), float(hi))

    target = tuple(interval() for _ in range(dims))
    def candidates():
        fewest = 0 if rng.random() < 0.05 else 1  # sometimes none at all
        return [interval() for _ in range(int(rng.integers(fewest, 5)))]

    covers = [candidates() for _ in range(dims)]
    return target, covers


def test_decide_product_matches_the_loop_on_every_exit():
    cases = np.random.default_rng(7)
    new = ProbabilisticSetFilter(rng=np.random.default_rng(11))
    old = ProbabilisticSetFilter(rng=np.random.default_rng(11))
    exits: dict[str, int] = {}
    for _ in range(3000):
        target, covers = _random_case(cases)
        got = new.decide_product(target, covers)
        want = decide_product_loop(old, target, covers)
        assert got == want, (target, covers)
        assert new._rng.bit_generator.state == old._rng.bit_generator.state
        exits[_exit(want)] = exits.get(_exit(want), 0) + 1
    assert (new.checks, new.sampled_points) == (old.checks, old.sampled_points)
    assert set(exits) == {"shortcut", "corner", "sampled-covered", "sampled-witness"}
    assert min(exits.values()) >= 30, exits
