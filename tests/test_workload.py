"""Tests for the synthetic SensorScope workload."""

import hashlib
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from repro.model.attributes import AMBIENT_TEMPERATURE, RELATIVE_HUMIDITY
from repro.network.topology import build_deployment, small_scale
from repro.workload import (
    ALL_SCENARIOS,
    CHURN,
    ChurnConfig,
    DynamicReplayConfig,
    ReplayConfig,
    SMALL,
    SubscriptionWorkloadConfig,
    build_churn_schedule,
    build_replay,
    bursty_round_times,
    generate_subscriptions,
    synthesize_stream_at,
)
from repro.workload.scenarios import default_scale
from repro.workload.streams import profile_for, station_offset


def _fixed_clock(rounds: int, period: float = 10.0) -> np.ndarray:
    return np.arange(rounds) * period


class TestStreams:
    def test_values_within_domain(self):
        rng = np.random.default_rng(0)
        for attr in (AMBIENT_TEMPERATURE, RELATIVE_HUMIDITY):
            values = synthesize_stream_at(attr, _fixed_clock(500), rng)
            assert values.min() >= attr.domain.lo
            assert values.max() <= attr.domain.hi

    def test_deterministic_given_rng_seed(self):
        a = synthesize_stream_at(
            AMBIENT_TEMPERATURE, _fixed_clock(50), np.random.default_rng(1)
        )
        b = synthesize_stream_at(
            AMBIENT_TEMPERATURE, _fixed_clock(50), np.random.default_rng(1)
        )
        assert np.array_equal(a, b)

    def test_autocorrelation_present(self):
        values = synthesize_stream_at(
            AMBIENT_TEMPERATURE, _fixed_clock(2000), np.random.default_rng(2)
        )
        x = values - values.mean()
        r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert r1 > 0.4, "AR(1) structure should persist"

    def test_rounds_positive(self):
        with pytest.raises(ValueError):
            ReplayConfig(rounds=0)

    def test_profiles_cover_sensorscope(self):
        assert profile_for(AMBIENT_TEMPERATURE).mean < 10.0
        assert profile_for(RELATIVE_HUMIDITY).mean > 50.0


class TestReplay:
    def test_one_reading_per_sensor_per_round(self):
        dep = small_scale(seed=1)
        replay = build_replay(dep, ReplayConfig(rounds=7))
        assert len(replay.events) == 7 * len(dep.sensors)
        per_sensor = {}
        for e in replay.events:
            per_sensor.setdefault(e.sensor_id, []).append(e)
        for events in per_sensor.values():
            assert len(events) == 7
            assert sorted(e.seq for e in events) == list(range(7))

    def test_jitter_bounded_and_rounds_disjoint(self):
        cfg = ReplayConfig(rounds=5, round_period=10.0, jitter=2.0)
        replay = build_replay(small_scale(seed=1), cfg)
        for e in replay.events:
            nominal = (e.seq + 1) * cfg.round_period
            assert abs(e.timestamp - nominal) <= cfg.jitter

    def test_medians_and_spreads_computed(self):
        dep = small_scale(seed=1)
        replay = build_replay(dep, ReplayConfig(rounds=10))
        assert set(replay.medians) == {s.sensor_id for s in dep.sensors}
        assert all(v > 0 for v in replay.spreads.values())

    def test_shifted_preserves_everything_but_time(self):
        replay = build_replay(small_scale(seed=1), ReplayConfig(rounds=3))
        shifted = replay.shifted(1000.0)
        assert len(shifted) == len(replay.events)
        for a, b in zip(replay.events, shifted):
            assert b.timestamp == a.timestamp + 1000.0
            assert (b.sensor_id, b.seq, b.value) == (a.sensor_id, a.seq, a.value)

    def test_replay_deterministic(self):
        dep = small_scale(seed=4)
        a = build_replay(dep, ReplayConfig(rounds=4))
        b = build_replay(dep, ReplayConfig(rounds=4))
        assert [e.key for e in a.events] == [e.key for e in b.events]
        assert [e.value for e in a.events] == [e.value for e in b.events]

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            ReplayConfig(rounds=5, round_period=10.0, jitter=6.0)


class TestDynamicStreams:
    def test_bursty_round_times_monotone_and_bursty(self):
        rng = np.random.default_rng(3)
        times = bursty_round_times(
            400, 10.0, rng, day_seconds=4000.0, rate_amplitude=0.5
        )
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert (gaps > 0).all()
        # Heavy-tailed pacing: the largest gap dwarfs the median one.
        assert gaps.max() > 3 * np.median(gaps)

    def test_bursty_round_times_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bursty_round_times(0, 10.0, rng)
        with pytest.raises(ValueError):
            bursty_round_times(5, 10.0, rng, rate_amplitude=1.5)
        with pytest.raises(ValueError):
            bursty_round_times(5, 10.0, rng, burst_shape=1.0)

    def test_drift_moves_the_mean_across_days(self):
        times = np.linspace(0.0, 4 * 100.0, 400)  # four 100s "days"
        rng = np.random.default_rng(5)
        drifted = synthesize_stream_at(
            AMBIENT_TEMPERATURE, times, rng, day_seconds=100.0, drift_per_day=3.0
        )
        rng = np.random.default_rng(5)
        flat = synthesize_stream_at(
            AMBIENT_TEMPERATURE, times, rng, day_seconds=100.0, drift_per_day=0.0
        )
        # Same noise draw, so the difference is the deterministic drift.
        last_day = slice(300, 400)
        sigma = profile_for(AMBIENT_TEMPERATURE).noise_sigma
        assert (drifted[last_day] - flat[last_day]).mean() > 2.5 * sigma

    def test_values_within_domain(self):
        times = np.linspace(0.0, 200.0, 100)
        values = synthesize_stream_at(
            RELATIVE_HUMIDITY, times, np.random.default_rng(1), drift_per_day=5.0
        )
        assert values.min() >= RELATIVE_HUMIDITY.domain.lo
        assert values.max() <= RELATIVE_HUMIDITY.domain.hi


class TestChurnSchedule:
    def test_requested_fraction_cycles(self):
        dep = small_scale(seed=2)
        schedule = build_churn_schedule(
            dep, span=400.0, config=ChurnConfig(cycle_fraction=0.25)
        )
        assert len(schedule.intervals) == round(0.25 * len(dep.sensors))
        for spans in schedule.intervals.values():
            # Present at setup, back for good at the end, ordered spans.
            assert spans[0][0] == float("-inf")
            assert spans[-1][1] == float("inf")
            for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
                assert s1 < e1 < s2

    def test_alive_interval_queries(self):
        dep = small_scale(seed=2)
        schedule = build_churn_schedule(
            dep, span=400.0, config=ChurnConfig(cycle_fraction=0.2)
        )
        sensor = min(schedule.intervals)
        (_, leave), (rejoin, _) = schedule.intervals[sensor][:2]
        assert schedule.alive_at(sensor, leave - 1e-6)
        assert not schedule.alive_at(sensor, leave)
        assert schedule.alive_at(sensor, rejoin)
        assert schedule.interval_index(sensor, leave - 1.0) == 0
        assert schedule.interval_index(sensor, rejoin + 1.0) == 1
        # Non-cycling sensors are alive forever.
        assert schedule.alive_at("anything-else", 1e9)

    def test_transitions_alternate_and_shift(self):
        dep = small_scale(seed=2)
        schedule = build_churn_schedule(
            dep, span=400.0, config=ChurnConfig(cycle_fraction=0.2, cycles=2)
        )
        transitions = schedule.transitions()
        assert transitions == sorted(transitions)
        per_sensor: dict[str, list[str]] = {}
        for _t, sensor_id, kind in transitions:
            per_sensor.setdefault(sensor_id, []).append(kind)
        for kinds in per_sensor.values():
            assert kinds == ["leave", "join", "leave", "join"]
        moved = schedule.shifted(1000.0)
        assert [
            (t + 1000.0, s, k) for t, s, k in transitions
        ] == moved.transitions()

    def test_zero_fraction_is_empty(self):
        dep = small_scale(seed=2)
        schedule = build_churn_schedule(
            dep, span=400.0, config=ChurnConfig(cycle_fraction=0.0)
        )
        assert not schedule
        assert schedule.transitions() == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(cycle_fraction=1.5)
        with pytest.raises(ValueError):
            ChurnConfig(cycles=0)
        with pytest.raises(ValueError):
            ChurnConfig(min_off_fraction=0.3, max_off_fraction=0.2)
        with pytest.raises(ValueError):
            ChurnConfig(start_margin=0.5, end_margin=0.5)


class TestDynamicReplay:
    def _arena(self, seed=3):
        dep = build_deployment(24, 3, seed=seed)
        return dep, build_replay(
            dep,
            DynamicReplayConfig(days=2, rounds_per_day=8, day_seconds=120.0),
            ChurnConfig(cycle_fraction=0.3),
        )

    def test_spans_multiple_days(self):
        _, replay = self._arena()
        assert replay.span > 2 * 120.0 * 0.5  # bursty clock, ~2 days
        assert len(replay.round_times) == 16

    def test_events_only_while_alive(self):
        _, replay = self._arena()
        assert replay.churn
        for event in replay.events:
            assert replay.churn.alive_at(event.sensor_id, event.timestamp)
        published = Counter(event.sensor_id for event in replay.events)
        suppressed = sum(16 - published[s] for s in replay.churn.intervals)
        assert suppressed > 0  # churn genuinely removed publications

    def test_statistics_cover_every_sensor(self):
        """Medians/spreads come from the full synthesized series, so
        even a sensor that published nothing has subscription stats."""
        dep, replay = self._arena()
        for placement in dep.sensors:
            assert placement.sensor_id in replay.medians
            assert replay.spreads[placement.sensor_id] > 0

    def test_deterministic(self):
        _, a = self._arena()
        _, b = self._arena()
        assert [(e.key, e.value, e.timestamp) for e in a.events] == [
            (e.key, e.value, e.timestamp) for e in b.events
        ]
        assert a.churn.intervals == b.churn.intervals

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DynamicReplayConfig(days=0)
        with pytest.raises(ValueError):
            DynamicReplayConfig(rate_amplitude=1.0)
        with pytest.raises(ValueError):
            DynamicReplayConfig(jitter=-1.0)


def _campaign_digest(replay) -> str:
    """blake2b over everything a campaign hands the layers above it:
    events, medians, spreads, the round clock and the churn intervals."""
    h = hashlib.blake2b(digest_size=16)
    for part in (
        [
            (e.sensor_id, e.attribute, e.location, e.value, e.timestamp, e.seq)
            for e in replay.events
        ],
        sorted(replay.medians.items()),
        sorted(replay.spreads.items()),
        list(replay.round_times),
        sorted(replay.churn.intervals.items()),
    ):
        h.update(repr(part).encode())
    return h.hexdigest()


class TestCampaignBytes:
    """The synthesized campaigns, pinned byte for byte: every figure,
    golden run and oracle truth is a function of these bytes."""

    def test_static_campaign(self):
        replay = build_replay(small_scale(seed=1), ReplayConfig(rounds=5))
        assert _campaign_digest(replay) == "e209ad9ec8193562eb5ff4f85f754b92"

    def test_dynamic_campaign(self):
        replay = build_replay(
            small_scale(seed=1), DynamicReplayConfig(days=1)
        )
        assert _campaign_digest(replay) == "c70a1786a013baf5cc2499bd53c67934"

    def test_dynamic_campaign_with_churn(self):
        replay = build_replay(
            small_scale(seed=1),
            DynamicReplayConfig(days=1),
            ChurnConfig(cycle_fraction=0.5),
        )
        assert replay.churn
        assert _campaign_digest(replay) == "16f81cf5e68141914334d06093b1f9b3"


class TestReplayHashseedStability:
    """The replay must be a pure function of the declared seeds — across
    *processes*, not just within one.  ``build_replay`` once seeded its
    per-sensor RNGs from builtin ``hash((seed, cfg.seed, sensor_id))``,
    which varies with PYTHONHASHSEED: worker processes of the sharded
    runner would synthesize different events than the parent computed
    ground truth for.  Mirrors ``test_sim.py``'s ``TestRngStability``."""

    _DRAW = (
        "import sys; sys.path.insert(0, {path!r}); "
        "from repro.network.topology import small_scale; "
        "from repro.workload.sensorscope import ReplayConfig, build_replay; "
        "r = build_replay(small_scale(seed=1), ReplayConfig(rounds=2)); "
        "print([(e.sensor_id, e.seq, e.timestamp, e.value) for e in r.events[:10]]); "
        "print(sorted(r.medians.items())[:5]); "
        "print(sorted(r.spreads.items())[:5])"
    )

    def _replay_in_subprocess(self, hashseed: str) -> str:
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", self._DRAW.format(path=src)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return out.stdout.strip()

    def test_replay_stable_across_hash_randomization(self):
        replays = {self._replay_in_subprocess(s) for s in ("0", "1", "31337")}
        assert len(replays) == 1, (
            "replay seeding must not depend on PYTHONHASHSEED; got "
            f"{len(replays)} distinct replays"
        )

    def test_replay_matches_in_process_build(self):
        replay = build_replay(small_scale(seed=1), ReplayConfig(rounds=2))
        local = "\n".join(
            [
                str([(e.sensor_id, e.seq, e.timestamp, e.value) for e in replay.events[:10]]),
                str(sorted(replay.medians.items())[:5]),
                str(sorted(replay.spreads.items())[:5]),
            ]
        )
        assert self._replay_in_subprocess("42") == local

    def test_derive_seed_pinned(self):
        """The derivation is part of the reproducibility contract: a
        changed constant silently invalidates every recorded series."""
        from repro.seeding import derive_seed

        assert derive_seed(7, "x") == 9003230406568570505
        assert derive_seed(1, 7, "s00") == 6152236867863631918
        assert derive_seed(7, "x") != derive_seed(7, "y")


class TestSubscriptionGenerator:
    def _workload(self, n=40, **kw):
        dep = small_scale(seed=2)
        replay = build_replay(dep, ReplayConfig(rounds=10))
        cfg = SubscriptionWorkloadConfig(n_subscriptions=n, attrs_min=3, attrs_max=5, **kw)
        return dep, generate_subscriptions(dep, replay.medians, cfg, replay.spreads)

    def test_even_group_targeting(self):
        dep, workload = self._workload(n=40)
        groups = {}
        for placed in workload:
            sensors = placed.subscription.sensor_ids
            group = {s.group for s in dep.sensors if s.sensor_id in sensors}
            assert len(group) == 1, "a subscription targets one group"
            g = group.pop()
            groups[g] = groups.get(g, 0) + 1
        assert set(groups) == set(range(10))
        assert all(count == 4 for count in groups.values())

    def test_attribute_count_in_bounds(self):
        _, workload = self._workload(n=30)
        for placed in workload:
            assert 3 <= len(placed.subscription.filters) <= 5

    def test_users_on_relays(self):
        dep, workload = self._workload(n=30)
        assert {p.node_id for p in workload} <= set(dep.user_nodes)

    def test_ranges_inside_domains(self):
        dep, workload = self._workload(n=60)
        domains = {s.sensor_id: s.attribute.domain for s in dep.sensors}
        for placed in workload:
            for f in placed.subscription.filters:
                assert domains[f.sensor_id].contains_interval(f.interval)
                assert not f.interval.is_empty

    def test_deterministic(self):
        _, w1 = self._workload(n=20)
        _, w2 = self._workload(n=20)
        assert [p.subscription.sub_id for p in w1] == [
            p.subscription.sub_id for p in w2
        ]
        for a, b in zip(w1, w2):
            assert a.node_id == b.node_id
            assert a.subscription.filters == b.subscription.filters

    def test_seed_changes_workload(self):
        _, w1 = self._workload(n=20, seed=1)
        _, w2 = self._workload(n=20, seed=2)
        assert any(
            a.subscription.filters != b.subscription.filters
            for a, b in zip(w1, w2)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SubscriptionWorkloadConfig(n_subscriptions=-1)
        with pytest.raises(ValueError):
            SubscriptionWorkloadConfig(n_subscriptions=1, attrs_min=3, attrs_max=2)


class TestScenarios:
    def test_nine_scenarios_registered(self):
        assert set(ALL_SCENARIOS) == {
            "small",
            "medium",
            "large_network",
            "large_sources",
            "churn",
            "admit_retire",
            "faults",
            "placement",
            "sketches",
        }
        churn = ALL_SCENARIOS["churn"]
        # The acceptance floor of the dynamic family: at least two
        # simulated days and at least 20% of the sensors cycling.
        assert churn.dynamic is not None and churn.dynamic.days >= 2
        assert churn.churn is not None and churn.churn.cycle_fraction >= 0.2
        admit_retire = ALL_SCENARIOS["admit_retire"]
        # The acceptance floor of the query-assignment family: an
        # ongoing lifecycle with finite holds, all five approaches.
        assert admit_retire.lifecycle is not None
        assert admit_retire.lifecycle.hold is not None
        assert admit_retire.include_centralized
        faults = ALL_SCENARIOS["faults"]
        # The acceptance floor of the unreliable-transport family: real
        # link loss, the reliability layer on, all five approaches.
        assert faults.faults is not None and faults.faults.default.drop > 0
        assert faults.reliability is not None
        assert faults.include_centralized
        placement = ALL_SCENARIOS["placement"]
        # The acceptance floor of the placement family: a tiered
        # (heterogeneous) deployment and a skewed cross-group workload.
        assert placement.deployment_factory(seed=0).specs
        assert placement.span_groups == 2
        assert placement.group_width_scale is not None
        wide, narrow = placement.group_width_scale
        assert wide > 1.0 > narrow
        sketches = ALL_SCENARIOS["sketches"]
        # The acceptance floor of the approximate-answer family: every
        # generated query sketch-eligible (single-attribute clauses), a
        # long replay so bounded-size digests beat raw shipping, and
        # the exact frontier includes centralized raw shipping.  The
        # scenario itself is the exact lane; the figure harness derives
        # the approximate lanes via sketches_variant(k).
        assert sketches.attrs_min == sketches.attrs_max == 1
        assert sketches.replay is not None and sketches.replay.rounds >= 96
        assert sketches.include_centralized
        assert sketches.sketch is None

    def test_counts_scale(self):
        full = SMALL.subscription_counts(scale=1.0)
        assert full == list(range(100, 1001, 100))
        tenth = SMALL.subscription_counts(scale=0.1)
        assert tenth == list(range(10, 101, 10))

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert default_scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "3.0")
        with pytest.raises(ValueError):
            default_scale()

    def test_scale_presets(self, monkeypatch):
        from repro.workload.scenarios import SCALE_PRESETS, parse_scale

        assert parse_scale("full") == 1.0
        assert parse_scale("ci") == SCALE_PRESETS["ci"]
        assert parse_scale("0.25") == 0.25
        monkeypatch.setenv("REPRO_SCALE", "nightly")
        assert default_scale() == SCALE_PRESETS["nightly"]
        with pytest.raises(ValueError):
            parse_scale("bogus")
