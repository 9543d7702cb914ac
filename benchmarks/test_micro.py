"""Micro-benchmarks of the hot inner loops (real repeated timing).

What the repo benchmark (``benchmarks/e2e``, the benchmark of record)
cannot see from outside: isolated kernels — FSF's per-slot cover
decision, event-store insert/query, operator coverage, the incremental
matcher's ``matches_involving``, in-order ingest with an engine
listening and an acked one-hop transfer on the reliable transport —
plus the one assertion that pins the facade's ingestion overhead
against direct ``network.publish``, counted in function calls.  CI
runs this file as a smoke; no timing artifact is kept.
"""

import gc
import sys

import numpy as np

from repro.matching import MatchingEngine
from repro.model import (
    Advertisement,
    AdvertisementTable,
    IdentifiedSubscription,
    Interval,
    Location,
    SimpleEvent,
    root_operator,
)
from repro.model.intervals import union_covers
from repro.network.eventstore import EventStore
from repro.network.topology import build_deployment
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)


def _identified(sub_id, ranges):
    """Root operator of an identified query whose sensors are advertised."""
    ads = AdvertisementTable()
    for sensor_id, (attribute, _, _) in ranges.items():
        ads.add(ads.LOCAL, Advertisement(sensor_id, attribute, Location(0, 0)))
    subscription = IdentifiedSubscription.from_ranges(sub_id, ranges, 5.0)
    return root_operator(subscription, "n", ads)


def _operator(width=5):
    return _identified("s", {f"d{i}": ("t", 0.0, 50.0) for i in range(width)})


def _events(n_per_sensor=50, width=5):
    rng = np.random.default_rng(0)
    events = []
    for i in range(width):
        for seq in range(n_per_sensor):
            events.append(
                SimpleEvent(
                    f"d{i}",
                    "t",
                    Location(0, 0),
                    float(rng.uniform(0, 60)),
                    10.0 * seq + float(rng.uniform(0, 4)),
                    seq,
                )
            )
    return events


def test_bench_per_slot_cover(benchmark):
    """FSF's cover decision: every one of 5 slots' ranges inside the
    union of its 12 stored candidates."""
    rng = np.random.default_rng(2)
    target = tuple(Interval(10, 40) for _ in range(5))
    per_slot = [
        [Interval(float(lo), float(lo) + 20.0) for lo in rng.uniform(0, 25, 12)]
        for _ in range(5)
    ]

    def decide():
        return all(
            union_covers(candidates, interval)
            for interval, candidates in zip(target, per_slot)
        )

    benchmark(decide)


# ---------------------------------------------------------------------------
# matcher kernel: the incremental engine's per-operator probe
# ---------------------------------------------------------------------------
def _matcher_state():
    """Store + engine holding the benchmark events, plus stored probes.

    The probes are real stored events that *do* participate in matches
    — strictly more work per query than the seed benchmark's unstored
    probe (which matched nothing by construction).
    """
    op = _operator()
    store = EventStore(validity=10_000.0)
    engine = MatchingEngine(store)
    engine.retain(op)
    events = _events()
    now = 0.0
    for e in events:
        now = max(now, e.timestamp)
        store.add(e, now)
    probes = [e for e in events if 240.0 <= e.timestamp <= 260.0]
    assert probes, "benchmark scenario must provide stored probes"
    return op, store, engine, probes


def test_bench_matches_involving(benchmark):
    """The seed benchmark's exact scenario, answered by the engine.

    Same operator, same 250 stored events, same probe: "which stored
    events does this arrival correlate with?".  The seed answered it by
    rescanning every window (23.8 µs mean on the machine that first
    measured it); the engine answers from its per-slot index.  Kept
    scenario-identical so the number is comparable PR-over-PR.
    """
    op, _store, engine, _probes = _matcher_state()
    matcher = engine.matcher(op)
    probe = SimpleEvent("d0", "t", Location(0, 0), 25.0, 255.0, 99)

    def query():
        return matcher.matches_involving(probe)

    benchmark(query)
    benchmark.extra_info["seed_baseline_us"] = 23.8


def test_bench_matches_involving_stored(benchmark):
    """The engine on rotating stored, match-participating probes —
    strictly harder queries than the seed scenario's."""
    op, _store, engine, probes = _matcher_state()
    matcher = engine.matcher(op)
    state = {"i": 0}

    def query():
        i = state["i"]
        state["i"] = (i + 1) % len(probes)
        return matcher.matches_involving(probes[i])

    benchmark(query)


def test_bench_in_order_ingest(benchmark):
    """Timestamp-ordered arrivals through ``EventStore.add`` with an
    engine listening: the store insert, the engine's ingest and the
    sweep of every arrival that can complete a window — what a node
    pays per received reading when sensors publish in order."""
    op = _operator()
    events = sorted(_events(), key=lambda e: e.timestamp)

    def run():
        store = EventStore(validity=50.0)
        engine = MatchingEngine(store)
        engine.retain(op)
        hits = 0
        for e in events:
            if store.add(e, e.timestamp):
                hits += len(engine.hits(e))
        return hits

    assert run(), "benchmark arrivals must complete some windows"
    benchmark(run)


def test_bench_eventstore_insert_and_query(benchmark):
    events = _events(n_per_sensor=100)

    def run():
        store = EventStore(validity=50.0)
        now = 0.0
        for e in events:
            now = max(now, e.timestamp)
            store.add(e, now)
        return sum(
            len(store.events_for_sensor("d0", t, t + 5.0)) for t in range(0, 900, 10)
        )

    benchmark(run)


def test_bench_operator_coverage_check(benchmark):
    wide = _operator()
    narrow = _identified("n", {f"d{i}": ("t", 10.0, 40.0) for i in range(5)})
    benchmark(wide.covers, narrow)


# ---------------------------------------------------------------------------
# transport kernel: one acked control transfer over a lossless link
# ---------------------------------------------------------------------------
def test_bench_acked_one_hop_transfer(benchmark):
    """What the reliability lane pays per control message: send, the
    copy's arrival at a receiver that only counts it, and the ack that
    ends the transfer — 100 transfers over one link per round."""
    from repro.model import Advertisement
    from repro.network.faults import FaultPlan
    from repro.network.messages import AdvertisementMessage
    from repro.network.network import Network
    from repro.network.reliability import ReliabilityConfig
    from repro.protocols.registry import all_approaches
    from repro.sim import Simulator

    network = Network(
        build_deployment(24, 3),
        Simulator(seed=0),
        faults=FaultPlan.none(),
        reliability=ReliabilityConfig(),
    )
    all_approaches()["naive"].populate(network)
    arrivals = []

    class Receiver:
        def receive(self, message, origin):
            arrivals.append(origin)

    network.nodes["r1"] = Receiver()
    message = AdvertisementMessage(Advertisement("d", "t", Location(0, 0)))

    def run():
        for _ in range(100):
            network.send("r0", "r1", message)
        network.run_to_quiescence()

    run()
    assert len(arrivals) == 100 and network.transport.live_transfers == 0
    benchmark(run)


# ---------------------------------------------------------------------------
# facade ingestion: Session.ingest vs direct network.publish
# ---------------------------------------------------------------------------
def _ingest_arena():
    """A session mid-flight: 60 operators placed, sensors live."""
    from repro.api import Session

    deployment = build_deployment(20, 2, seed=3)
    session = Session.create(approach="fsf", deployment=deployment, seed=3)
    medians = {
        s.sensor_id: (s.attribute.domain.lo + s.attribute.domain.hi) / 2
        for s in deployment.sensors
    }
    config = SubscriptionWorkloadConfig(
        n_subscriptions=60, seed=11, base_half_width=1.0
    )
    for placed in generate_subscriptions(deployment, medians, config):
        session.submit(placed.subscription, at=placed.node_id, settle=False)
    session.drain()
    return session, medians


def _ingest_pattern(session, medians, readings_per_sensor=6):
    """One burst of (sensor, value, timestamp) readings in a delta_t
    window.  Every round replays the same value pattern (timestamps
    advance, so stores still cycle through their validity window):
    homogeneous rounds keep the facade / direct comparison about the
    facade, not about which workload a round happened to draw."""
    rng = np.random.default_rng(42)
    sensors = session.deployment.sensors
    t0 = session.now + 1.0
    n = len(sensors) * readings_per_sensor
    out = []
    for j, placement in enumerate(sensors):
        for r in range(readings_per_sensor):
            value = medians[placement.sensor_id] + float(rng.normal(0.0, 5.0))
            out.append(
                (
                    placement,
                    value,
                    t0 + 4.0 * (j * readings_per_sensor + r) / n,
                )
            )
    return out


def _facade_round(session, medians):
    for placement, value, timestamp in _ingest_pattern(session, medians):
        session.ingest(placement.sensor_id, value, timestamp=timestamp)
    session.drain()


def _direct_round(session, medians, seq_state):
    network = session.network
    for placement, value, timestamp in _ingest_pattern(session, medians):
        seq = seq_state[placement.sensor_id] = (
            seq_state.get(placement.sensor_id, -1) + 1
        )
        event = SimpleEvent(
            placement.sensor_id,
            placement.attribute.name,
            placement.location,
            value,
            timestamp,
            seq,
        )
        network.sim.at(
            event.timestamp,
            lambda p=placement, e=event: network.publish(p.node_id, e),
        )
    network.run_to_quiescence()


def _calls(run_round):
    """Python and C function calls one round makes (``sys.setprofile``)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    gc.collect()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run_round()
    finally:
        sys.setprofile(previous)
    return calls


def test_facade_ingest_overhead_under_five_percent():
    """Pin: the facade adds <5% over direct ``network.publish``.

    Identical bursts drive two identical sessions, rounds interleaved.
    The work is identical modulo the facade's per-reading cost
    (placement lookup, event construction, seq bookkeeping), and is
    counted, not timed: the Python and C calls of three rounds per
    side.  A count repeats on any machine, where CPU time on a loaded
    one swings by more than the bound.  Only the call count is pinned:
    work added inside a call (a scan in one builtin, extra inline
    bytecode) does not show here.
    """
    facade_session, facade_medians = _ingest_arena()
    direct_session, direct_medians = _ingest_arena()
    seq_state = {}
    # Warm both stores to steady state.
    for _ in range(2):
        _facade_round(facade_session, facade_medians)
        _direct_round(direct_session, direct_medians, seq_state)
    facade_calls = direct_calls = 0
    for _ in range(3):
        facade_calls += _calls(lambda: _facade_round(facade_session, facade_medians))
        direct_calls += _calls(
            lambda: _direct_round(direct_session, direct_medians, seq_state)
        )
    ratio = facade_calls / direct_calls
    assert ratio < 1.05, (
        f"facade ingestion overhead {100 * (ratio - 1):.1f}% (>= 5%): "
        f"facade {facade_calls} calls vs direct {direct_calls} over 3 rounds"
    )
