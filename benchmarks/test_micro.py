"""Micro-benchmarks of the hot inner loops (real repeated timing).

Two families:

* isolated kernels — set-filter decisions, event-store insert/query,
  operator coverage, and the matcher itself (incremental engine vs the
  reference window scan on identical state);
* end-to-end hot path — event ingest → ``pubsub_forward`` on a 20-node
  deployment holding 200 operators, in both matching modes.  This is
  where the incremental engine's win is measured where it matters: the
  whole node event path, not a kernel in isolation.

``BENCH_micro.json`` (committed at the repo root, regenerated by CI)
records the trajectory PR-over-PR; ``extra_info["seed_baseline_us"]``
preserves the pre-engine numbers measured on the same machine that
produced the first artifact.
"""

import os

import numpy as np

from benchlib import tiny_series_scenario

from repro.core import filter_split_forward_approach
from repro.experiments.parallel import run_series_parallel
from repro.experiments.runner import REPLAY_START, run_series
from repro.matching import MatchingEngine
from repro.metrics.oracle import EventIndex, compute_truth
from repro.model import (
    IdentifiedSubscription,
    Interval,
    Location,
    SimpleEvent,
    matches_involving,
    operator_from_identified,
)
from repro.network.eventstore import EventStore
from repro.network.network import Network
from repro.network.topology import build_deployment
from repro.protocols.registry import distributed_approaches
from repro.sim import Simulator
from repro.subsumption import ProbabilisticSetFilter
from repro.workload.scenarios import SMALL
from repro.workload.sensorscope import build_replay
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)


def _operator(width=5):
    ranges = {f"d{i}": ("t", 0.0, 50.0) for i in range(width)}
    return operator_from_identified(
        IdentifiedSubscription.from_ranges("s", ranges, 5.0), "n"
    )


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


def test_bench_setfilter_decide(benchmark):
    rng = np.random.default_rng(1)
    f = ProbabilisticSetFilter(0.01, 0.05, rng=rng)
    target = tuple(Interval(10, 40) for _ in range(5))
    cover = [
        tuple(Interval(float(lo), float(lo) + 35.0) for lo in rng.uniform(0, 15, 5))
        for _ in range(30)
    ]
    benchmark(f.is_subsumed, target, cover)


def test_bench_setfilter_product_mode(benchmark):
    rng = np.random.default_rng(2)
    f = ProbabilisticSetFilter(0.01, 0.05, rng=rng)
    target = tuple(Interval(10, 40) for _ in range(5))
    per_dim = [
        [Interval(float(lo), float(lo) + 20.0) for lo in rng.uniform(0, 25, 12)]
        for _ in range(5)
    ]
    benchmark(f.is_product_subsumed, target, per_dim)


# ---------------------------------------------------------------------------
# matcher kernels: incremental engine vs reference scan, identical state
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
    rescanning every window (23.8 µs mean on the machine that produced
    the first BENCH_micro.json); the engine answers from its per-slot
    index.  Kept scenario-identical so the number is comparable
    PR-over-PR.
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


def test_bench_matches_involving_reference(benchmark):
    """The reference window scan on the identical stored probes."""
    op, store, _engine, probes = _matcher_state()
    state = {"i": 0}

    def query():
        i = state["i"]
        state["i"] = (i + 1) % len(probes)
        return matches_involving(op, store, probes[i])

    benchmark(query)


def test_bench_matches_involving_seed_reference(benchmark):
    """The seed benchmark verbatim: reference scan, unstored probe."""
    op = _operator()
    idx = EventIndex(_events())
    probe = SimpleEvent("d0", "t", Location(0, 0), 25.0, 255.0, 99)
    benchmark(matches_involving, op, idx, probe)


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
    narrow = operator_from_identified(
        IdentifiedSubscription.from_ranges(
            "n", {f"d{i}": ("t", 10.0, 40.0) for i in range(5)}, 5.0
        ),
        "n",
    )
    benchmark(wide.covers, narrow)


# ---------------------------------------------------------------------------
# end-to-end hot path: ingest → pubsub_forward, 20 nodes / 200 operators
# ---------------------------------------------------------------------------
def _forwarding_network(matching: str):
    """An FSF network mid-flight: 200 operators placed, sensors live."""
    deployment = build_deployment(20, 2, seed=3)
    network = Network(
        deployment, Simulator(seed=3), delta_t=5.0, matching=matching
    )
    filter_split_forward_approach().populate(network)
    network.attach_all_sensors()
    network.run_to_quiescence()
    medians = {
        s.sensor_id: (s.attribute.domain.lo + s.attribute.domain.hi) / 2
        for s in deployment.sensors
    }
    config = SubscriptionWorkloadConfig(
        n_subscriptions=200, seed=11, base_half_width=1.0
    )
    for placed in generate_subscriptions(deployment, medians, config):
        network.register_subscription(placed.node_id, placed.subscription)
    network.run_to_quiescence()
    return deployment, network, medians


_READINGS_PER_SENSOR = 6
"""Readings per sensor per benchmark round, jittered across one
delta_t window — sustained-load density, where window reuse matters."""

_ROUND_PATTERN_SEED = 42
"""Every round replays the same value pattern (timestamps advance, so
stores still cycle through their validity window).  Homogeneous rounds
make the per-round statistics tight enough that the incremental /
reference comparison is about the matcher, not about which random
workload each round happened to draw."""


def _forward_round(deployment, network, medians, state):
    """Publish a burst of readings inside one delta_t window and drain
    the network — the full ingest → match → forward pipeline."""
    rng = np.random.default_rng(_ROUND_PATTERN_SEED)
    base = state["round"]
    state["round"] += 1
    k = _READINGS_PER_SENSOR
    n_sensors = len(deployment.sensors)
    t0 = network.sim.now + 1.0
    seq = base * n_sensors * k
    for j, placement in enumerate(deployment.sensors):
        for r in range(k):
            value = medians[placement.sensor_id] + float(rng.normal(0.0, 5.0))
            event = SimpleEvent(
                placement.sensor_id,
                placement.attribute.name,
                placement.location,
                value,
                t0 + 4.0 * (j * k + r) / (n_sensors * k),
                seq,
            )
            seq += 1
            network.sim.at(
                event.timestamp,
                lambda p=placement, e=event: network.publish(p.node_id, e),
            )
    network.run_to_quiescence()


def _bench_forward(benchmark, matching: str):
    deployment, network, medians = _forwarding_network(matching)
    state = {"round": 0}
    benchmark.extra_info["matching"] = matching
    benchmark.extra_info["n_nodes"] = deployment.n_nodes
    benchmark.extra_info["n_operators"] = 200
    # Warm until the event stores reach their validity-bounded steady
    # state, so both modes measure sustained load, not store fill-up;
    # collect garbage between rounds so allocator pauses land outside
    # the timed region.
    import gc

    benchmark.pedantic(
        _forward_round,
        args=(deployment, network, medians, state),
        setup=lambda: (gc.collect(), None)[1],
        warmup_rounds=4,
        rounds=10,
        iterations=1,
    )
    benchmark.extra_info["event_units"] = network.meter.event_units


def test_bench_e2e_forward_incremental(benchmark):
    """Ingest → pubsub_forward with the incremental matching engine."""
    _bench_forward(benchmark, "incremental")


def test_bench_e2e_forward_reference(benchmark):
    """Identical workload on the reference (seed) matcher — the
    recompute-on-arrival baseline the engine is measured against."""
    _bench_forward(benchmark, "reference")


# ---------------------------------------------------------------------------
# matching core at sharing scale: thousands of near-duplicate operators
# ---------------------------------------------------------------------------
_SHARED_N_OPS = 5000
_SHARED_N_TEMPLATES = 50
_SHARED_N_SENSORS = 20
_SHARED_EVENTS_PER_ROUND = 600


def _shared_operators(rng):
    """5000 operators drawn from 50 slot templates over 20 sensors:
    exact structural duplicates (same slots and ``delta_t``, own
    subscription id).  The engine answers each template from one
    shared matcher."""
    from repro.model.operators import CorrelationOperator, Slot

    templates = []
    for _ in range(_SHARED_N_TEMPLATES):
        k = 2 + int(rng.integers(0, 3))
        slots = []
        for j, s in enumerate(rng.choice(_SHARED_N_SENSORS, size=k, replace=False)):
            lo = round(float(rng.integers(0, 12)) * 0.5, 2)
            hi = lo + round(float(rng.integers(1, 5)) * 0.5, 2)
            slots.append(
                Slot(
                    slot_id=f"a{j}",
                    attribute="temp",
                    interval=Interval(lo, hi),
                    sensors=frozenset(
                        {f"s{int(s)}", f"s{(int(s) + 1) % _SHARED_N_SENSORS}"}
                    ),
                )
            )
        templates.append(tuple(slots))
    return [
        CorrelationOperator(f"q{i}", "u", templates[i % _SHARED_N_TEMPLATES], 3.0)
        for i in range(_SHARED_N_OPS)
    ]


def _shared_matching_arena():
    """Store + engine with the shared-template operators registered and
    the per-sensor layouts pre-built (registration cost is amortised
    over a long-running deployment, so it stays outside the timed
    region), plus the deterministic per-round reading pattern."""
    rng = np.random.default_rng(7)
    sensors = [f"s{i}" for i in range(_SHARED_N_SENSORS)]
    loc = Location(0.0, 0.0)
    ops = _shared_operators(rng)
    pattern = [
        (sensors[int(rng.integers(0, _SHARED_N_SENSORS))], round(float(rng.uniform(0, 8)), 3))
        for _ in range(_SHARED_EVENTS_PER_ROUND)
    ]
    store = EventStore(validity=30.0)
    engine = MatchingEngine(store)
    by_sensor: dict = {}
    for op in ops:
        matcher = engine.retain(op)
        for s in op.sensors:
            by_sensor.setdefault(s, []).append(matcher)
    # Warm: one out-of-range reading per sensor forces every per-slot
    # index to build now.
    for i, s in enumerate(sensors):
        warm = SimpleEvent(s, "temp", loc, -100.0, 0.001 + i * 1e-6, -1000 + i)
        store.add(warm, warm.timestamp)
        _shared_round_events(by_sensor, [warm], store, add=False)
    return store, by_sensor, pattern, loc


def _shared_round_events(by_sensor, events, store, add=True):
    """Drive one burst through the matching core, returning the number
    of operators that matched."""
    n_matches = 0
    for ev in events:
        if add and not store.add(ev, ev.timestamp):
            continue
        for m in by_sensor.get(ev.sensor_id, ()):
            if m.matches_involving(ev):
                n_matches += 1
    return n_matches


def test_bench_matching_shared_incremental(benchmark):
    """The incremental engine at sharing scale: 5000 near-duplicate
    operators, each answering ``matches_involving`` per arrival.  Since
    PR 19 that call is always one sweep (the probe memo is gone: nodes
    read the arrival's hit map and probe nobody), so this times 5000
    direct sweeps per arrival — the per-record pattern, not what a
    node pays; it read about 8x lower while the memo served it."""
    import gc

    store, by_sensor, pattern, loc = _shared_matching_arena()
    state = {"round": 0, "matches": 0}

    def round_():
        base = state["round"]
        state["round"] += 1
        t0 = 1.0 + base * 12.5
        seq = base * len(pattern)
        events = [
            SimpleEvent(s, "temp", loc, v, t0 + round(i * 0.02, 3), seq + i)
            for i, (s, v) in enumerate(pattern)
        ]
        state["matches"] = _shared_round_events(by_sensor, events, store)

    benchmark.extra_info["matching"] = "incremental"
    benchmark.extra_info["n_operators"] = _SHARED_N_OPS
    benchmark.extra_info["n_templates"] = _SHARED_N_TEMPLATES
    benchmark.pedantic(
        round_,
        setup=lambda: (gc.collect(), None)[1],
        warmup_rounds=1,
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["matches_last_round"] = state["matches"]


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
    """One burst of (sensor, value, timestamp) readings in a delta_t window."""
    rng = np.random.default_rng(_ROUND_PATTERN_SEED)
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


def test_bench_facade_ingest(benchmark):
    """The full session path: ``ingest`` lookups + event build + agenda."""
    import gc

    session, medians = _ingest_arena()
    benchmark.pedantic(
        _facade_round,
        args=(session, medians),
        setup=lambda: (gc.collect(), None)[1],
        warmup_rounds=3,
        rounds=15,
        iterations=1,
    )


def test_bench_direct_publish(benchmark):
    """The identical burst hand-built and scheduled on the raw network.

    Compared against ``test_bench_facade_ingest`` in the artifact; the
    machine-checked <5% bound lives in
    ``test_facade_ingest_overhead_under_five_percent``, whose
    interleaved rounds cancel the scheduler noise two separate bench
    sessions cannot.
    """
    import gc

    session, medians = _ingest_arena()
    seq_state = {}
    benchmark.pedantic(
        _direct_round,
        args=(session, medians, seq_state),
        setup=lambda: (gc.collect(), None)[1],
        warmup_rounds=3,
        rounds=15,
        iterations=1,
    )


def test_facade_ingest_overhead_under_five_percent():
    """Pin: the facade adds <5% over direct ``network.publish``.

    Identical bursts drive two identical sessions, rounds interleaved.
    The work is deterministic and identical modulo the facade's
    per-reading cost (placement lookup, event construction, seq
    bookkeeping), so the *fastest* round of each side is the estimate
    least polluted by scheduler/GC noise — medians still flake on a
    loaded single-core CI runner, minima do not.
    """
    import gc
    import time

    facade_session, facade_medians = _ingest_arena()
    direct_session, direct_medians = _ingest_arena()
    seq_state = {}
    # Warm both stores to steady state.
    for _ in range(2):
        _facade_round(facade_session, facade_medians)
        _direct_round(direct_session, direct_medians, seq_state)
    facade_times, direct_times = [], []
    for _ in range(11):
        gc.collect()
        start = time.perf_counter()
        _facade_round(facade_session, facade_medians)
        facade_times.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        _direct_round(direct_session, direct_medians, seq_state)
        direct_times.append(time.perf_counter() - start)
    ratio = min(facade_times) / min(direct_times)
    assert ratio < 1.05, (
        f"facade ingestion overhead {100 * (ratio - 1):.1f}% (>= 5%): "
        f"facade {min(facade_times) * 1e3:.2f} ms "
        f"vs direct {min(direct_times) * 1e3:.2f} ms"
    )


# ---------------------------------------------------------------------------
# offline oracle: engine-backed truth pass vs the reference window rescan
# ---------------------------------------------------------------------------
def _oracle_arena(n_subs=60):
    """The small-scale deployment's truth inputs (the figure suite's
    per-point oracle cost, isolated)."""
    deployment = SMALL.deployment()
    replay = build_replay(deployment, SMALL.replay)
    workload = generate_subscriptions(
        deployment,
        replay.medians,
        SMALL.workload_config(n_subs),
        spreads=replay.spreads,
    )
    subs = [p.subscription for p in workload]
    return deployment, subs, replay.shifted(REPLAY_START)


def _bench_oracle(benchmark, method: str):
    deployment, subs, events = _oracle_arena()
    truths = benchmark.pedantic(
        compute_truth,
        args=(subs, deployment, events),
        kwargs={"method": method},
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["method"] = method
    benchmark.extra_info["n_subscriptions"] = len(subs)
    benchmark.extra_info["n_instances"] = sum(
        t.n_instances for t in truths.values()
    )


def test_bench_oracle_engine(benchmark):
    """Engine-backed `compute_truth` (the figure suite's default)."""
    _bench_oracle(benchmark, "engine")


def test_bench_oracle_reference(benchmark):
    """The original per-trigger window rescan, same truth inputs."""
    _bench_oracle(benchmark, "reference")


# ---------------------------------------------------------------------------
# figure-series wall-clock: serial loop vs the sharded runner
# ---------------------------------------------------------------------------
def _bench_series(benchmark, workers: int):
    """One full (counts x approaches) series, serial or sharded.

    Records the wall-clock of the figure suite's unit of work; CI runs
    on few cores, so the honest signal is the recorded pair of means
    plus ``cpu_count`` — the sharded path's win scales with cores while
    its overhead (fork + per-worker state rebuild) stays fixed.
    """
    scenario = tiny_series_scenario()
    approaches = distributed_approaches()

    def run():
        if workers > 1:
            return run_series_parallel(
                scenario, approaches, workers=workers, scale=0.1
            )
        return run_series(scenario, approaches, scale=0.1)

    series = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["points"] = sum(
        len(runs) for runs in series.results.values()
    )
    benchmark.extra_info["event_load_fsf"] = [
        r.event_load for r in series.results["fsf"]
    ]


def test_bench_series_serial(benchmark):
    _bench_series(benchmark, workers=1)


def test_bench_series_sharded(benchmark):
    _bench_series(benchmark, workers=4)
