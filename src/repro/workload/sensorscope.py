"""Event replay: turning synthetic streams into timestamped publications.

Sensors publish in rounds (one reading per sensor per round) with a
per-sensor, per-round jitter smaller than the temporal correlation
distance — readings of one round correlate, consecutive rounds do not
bleed into each other, mirroring the fixed sampling intervals of the
SensorScope stations.

One builder, :func:`build_replay`, synthesises both campaigns; only
the round clock differs:

* a :class:`ReplayConfig` runs the **static** campaign — one smooth
  day on a fixed round period, the seed workload every figure of the
  paper runs on;
* a :class:`DynamicReplayConfig` runs the **dynamic** campaign —
  multiple compressed days with per-day value drift, diurnal rate
  modulation and Pareto-bursty round pacing.

Either takes an optional **churn schedule** (:class:`ChurnConfig` /
:class:`ChurnSchedule`): a subset of sensors leaves and rejoins at
scheduled times, publishing nothing while away.  The network layer
turns those transitions into advertisement retraction floods and
re-floods; the oracle fences departed sensors' history at each
departure.

Everything is seeded through :func:`repro.seeding.derive_seed`, so both
campaigns are bit-identical across processes and ``PYTHONHASHSEED``
values — the sharded experiment runner depends on it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..model import checks
from ..model.events import SimpleEvent
from ..network.topology import Deployment
from ..seeding import derive_seed
from .streams import (
    SECONDS_PER_DAY,
    bursty_round_times,
    station_offset,
    synthesize_stream_at,
)


@dataclass(frozen=True, slots=True)
class ReplayConfig:
    """Shape of the static campaign: rounds on a fixed period."""

    rounds: int = 24
    round_period: float = 10.0
    jitter: float = 2.0
    seed: int = 7

    def __post_init__(self) -> None:
        checks.positive_count(self, "rounds")
        checks.count(self, "seed")
        checks.positive(self, "round_period")
        checks.non_negative(self, "jitter")
        if not self.jitter < self.round_period / 2:
            raise ValueError("jitter must be in [0, round_period/2)")


@dataclass(frozen=True, slots=True)
class DynamicReplayConfig:
    """Shape of a multi-day drifting, bursty measurement campaign.

    ``day_seconds`` compresses a simulated day into affordable virtual
    time; the diurnal structure (value sinusoid and rate modulation)
    runs on this period.  ``drift_per_day`` shifts every stream's mean
    by that many noise-sigmas per day, so day two genuinely differs
    from day one.  Round pacing is shared by all sensors (readings of
    one round still correlate within the jitter), but gaps between
    rounds are diurnally modulated and Pareto-bursty — see
    :func:`repro.workload.streams.bursty_round_times`.
    """

    days: int = 2
    rounds_per_day: int = 24
    day_seconds: float = 240.0
    drift_per_day: float = 1.5
    rate_amplitude: float = 0.5
    burst_shape: float = 2.5
    jitter: float = 2.0
    seed: int = 7

    def __post_init__(self) -> None:
        checks.positive_count(self, "days", "rounds_per_day")
        checks.count(self, "seed")
        checks.positive(self, "day_seconds", "burst_shape")
        checks.finite(self, "drift_per_day")
        checks.non_negative(self, "jitter")
        checks.probability(self, "rate_amplitude")
        if self.rate_amplitude == 1:
            raise ValueError("rate_amplitude must be in [0, 1)")
        if self.burst_shape <= 1:
            raise ValueError("burst_shape must exceed 1")

    @property
    def rounds(self) -> int:
        return self.days * self.rounds_per_day

    @property
    def base_gap(self) -> float:
        return self.day_seconds / self.rounds_per_day


@dataclass(frozen=True, slots=True)
class ChurnConfig:
    """Which fraction of the deployment cycles, and how.

    Off-durations and margins are expressed as fractions of the replay
    span so one configuration scales with any campaign length.  The
    start margin keeps every sensor present while subscriptions
    register (the runner injects them before the replay); the end
    margin guarantees rejoined sensors publish again, so the
    advertisement re-flood path is always followed by live traffic.
    """

    cycle_fraction: float = 0.25
    cycles: int = 1
    min_off_fraction: float = 0.10
    max_off_fraction: float = 0.20
    start_margin: float = 0.15
    end_margin: float = 0.15
    seed: int = 11

    def __post_init__(self) -> None:
        checks.probability(self, "cycle_fraction", "start_margin", "end_margin")
        checks.probability(self, "min_off_fraction", "max_off_fraction")
        checks.positive_count(self, "cycles")
        checks.count(self, "seed")
        if not 0 < self.min_off_fraction <= self.max_off_fraction:
            raise ValueError("need 0 < min_off_fraction <= max_off_fraction")
        if self.start_margin + self.end_margin >= 0.9:
            raise ValueError("margins leave no room for churn")


@dataclass(frozen=True)
class ChurnSchedule:
    """Per-sensor alive intervals; sensors not listed are always alive.

    ``intervals[sensor_id]`` is a sorted tuple of half-open alive
    intervals ``[start, end)``; the first starts at ``-inf`` (every
    sensor is present when the network is set up) and the last ends at
    ``+inf`` when the sensor's final rejoin sticks.  A sensor publishes
    only while alive, and a **departure** (a finite interval end) fences
    the sensor's history: events from before the departure cannot take
    part in matches triggered at or after it.
    """

    intervals: Mapping[str, tuple[tuple[float, float], ...]]

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def alive_at(self, sensor_id: str, t: float) -> bool:
        spans = self.intervals.get(sensor_id)
        if spans is None:
            return True
        return self.interval_index(sensor_id, t) is not None

    def interval_index(self, sensor_id: str, t: float) -> int | None:
        """Index of the alive interval containing ``t`` (None if away)."""
        spans = self.intervals.get(sensor_id)
        if spans is None:
            return 0
        i = bisect.bisect_right([s[0] for s in spans], t) - 1
        if i >= 0 and spans[i][0] <= t < spans[i][1]:
            return i
        return None

    def transitions(self) -> list[tuple[float, str, str]]:
        """Every finite lifecycle edge as ``(time, sensor_id, kind)``,
        time-ordered; ``kind`` is ``"leave"`` or ``"join"``."""
        out: list[tuple[float, str, str]] = []
        for sensor_id, spans in self.intervals.items():
            for start, end in spans:
                if not math.isinf(start):
                    out.append((start, sensor_id, "join"))
                if not math.isinf(end):
                    out.append((end, sensor_id, "leave"))
        out.sort()
        return out

    def departures(self) -> list[tuple[float, str]]:
        """Finite interval ends, time-ordered — the oracle's fence list."""
        return [
            (t, sensor_id)
            for t, sensor_id, kind in self.transitions()
            if kind == "leave"
        ]

    def shifted(self, offset: float) -> "ChurnSchedule":
        """The same schedule moved by ``offset`` (infinite bounds stay)."""

        def move(x: float) -> float:
            return x if math.isinf(x) else x + offset

        return ChurnSchedule(
            {
                sensor_id: tuple((move(s), move(e)) for s, e in spans)
                for sensor_id, spans in self.intervals.items()
            }
        )


_INF = float("inf")


def build_churn_schedule(
    deployment: Deployment, span: float, config: ChurnConfig | None = None
) -> ChurnSchedule:
    """Deterministic leave/rejoin schedule over a replay of ``span``.

    Seeded per sensor via :func:`repro.seeding.derive_seed`, so the
    schedule of one sensor never depends on how many others cycle (and
    never on ``PYTHONHASHSEED``).  Each cycling sensor gets
    ``config.cycles`` leave/rejoin pairs inside the margin-trimmed
    window, each cycle confined to its own equal slice of the window so
    cycles never overlap.
    """
    cfg = config or ChurnConfig()
    if span <= 0:
        raise ValueError("span must be positive")
    sensor_ids = sorted(s.sensor_id for s in deployment.sensors)
    k = round(cfg.cycle_fraction * len(sensor_ids))
    if k == 0:
        return ChurnSchedule({})
    picker = np.random.default_rng(
        derive_seed(deployment.seed, cfg.seed, "churn-members")
    )
    chosen = sorted(
        sensor_ids[i]
        for i in picker.choice(len(sensor_ids), size=k, replace=False)
    )
    window_lo = cfg.start_margin * span
    window_hi = (1.0 - cfg.end_margin) * span
    slice_len = (window_hi - window_lo) / cfg.cycles
    intervals: dict[str, tuple[tuple[float, float], ...]] = {}
    for sensor_id in chosen:
        rng = np.random.default_rng(
            derive_seed(deployment.seed, cfg.seed, "churn", sensor_id)
        )
        spans: list[tuple[float, float]] = []
        previous_start = -_INF
        for c in range(cfg.cycles):
            lo = window_lo + c * slice_len
            off = span * float(
                rng.uniform(cfg.min_off_fraction, cfg.max_off_fraction)
            )
            off = min(off, 0.8 * slice_len)  # the cycle must fit its slice
            leave = lo + float(rng.uniform(0.0, slice_len - off))
            spans.append((previous_start, leave))
            previous_start = leave + off
        spans.append((previous_start, _INF))
        intervals[sensor_id] = tuple(spans)
    return ChurnSchedule(intervals)


@dataclass
class Replay:
    """A fully materialised campaign: events, per-sensor statistics, the
    round clock that stamped them and the churn schedule that thinned
    them (empty when no sensor cycles)."""

    events: list[SimpleEvent]
    medians: dict[str, float]
    spreads: dict[str, float]
    config: ReplayConfig | DynamicReplayConfig
    round_times: tuple[float, ...]
    churn: ChurnSchedule
    span: float
    """Length of the campaign: last round time plus jitter headroom."""

    def shifted(self, offset: float) -> list[SimpleEvent]:
        """The same events with timestamps moved by ``offset``.

        The experiment runner shifts every replay by the *fixed*
        ``repro.experiments.runner.REPLAY_START`` — deliberately not by
        the instant the subscription phase finished, which differs per
        approach: a fixed virtual start time keeps the replayed
        timestamps (and therefore the oracle's ground truth) identical
        for every approach, as the paper's protocol requires.
        """
        return [
            SimpleEvent(
                e.sensor_id,
                e.attribute,
                e.location,
                e.value,
                e.timestamp + offset,
                e.seq,
            )
            for e in self.events
        ]

    def churn_shifted(self, offset: float) -> ChurnSchedule | None:
        """The churn schedule on the clock :meth:`shifted` puts the
        events on, or None when no sensor cycles, so the common path
        stays churn-free."""
        return self.churn.shifted(offset) if self.churn else None


def build_replay(
    deployment: Deployment,
    config: ReplayConfig | DynamicReplayConfig | None = None,
    churn: ChurnConfig | None = None,
) -> Replay:
    """Synthesise the measurement campaign for a deployment.

    Deterministic in ``(deployment.seed, config.seed, churn.seed)`` —
    across *processes* too: per-sensor streams are keyed via
    :func:`repro.seeding.derive_seed`, never builtin ``hash`` (which
    varies with ``PYTHONHASHSEED`` and would make sharded workers
    synthesize different events than the parent computed ground truth
    for).  Every sensor draws ``config.rounds`` readings and publishes
    those stamped while it is alive.  The returned medians feed the
    subscription generator ("ranges ... centered around the median
    values in the corresponding stream"); they and the spreads cover
    each sensor's *full* series — churn removes publications, not
    statistics — so subscription generation is identical with and
    without a churn schedule.
    """
    cfg = config or ReplayConfig()
    if isinstance(cfg, DynamicReplayConfig):
        clock_rng = np.random.default_rng(
            derive_seed(deployment.seed, cfg.seed, "round-clock")
        )
        round_times = bursty_round_times(
            cfg.rounds,
            cfg.base_gap,
            clock_rng,
            day_seconds=cfg.day_seconds,
            rate_amplitude=cfg.rate_amplitude,
            burst_shape=cfg.burst_shape,
        )
        sample_times = round_times
        day_seconds, drift_per_day = cfg.day_seconds, cfg.drift_per_day
    else:
        # The fixed clock samples each round one period before it stamps
        # it, as the static campaign always has: keeping that offset
        # keeps every static figure byte-identical.
        sample_times = np.arange(cfg.rounds) * cfg.round_period
        round_times = np.arange(1, cfg.rounds + 1) * cfg.round_period
        day_seconds, drift_per_day = SECONDS_PER_DAY, 0.0
    span = float(round_times[-1]) + cfg.jitter
    schedule = (
        build_churn_schedule(deployment, span, churn)
        if churn is not None
        else ChurnSchedule({})
    )
    events: list[SimpleEvent] = []
    medians: dict[str, float] = {}
    spreads: dict[str, float] = {}
    for placement in deployment.sensors:
        rng = np.random.default_rng(
            derive_seed(deployment.seed, cfg.seed, placement.sensor_id)
        )
        offset = station_offset(placement.attribute, placement.group, rng)
        values = synthesize_stream_at(
            placement.attribute,
            sample_times,
            rng,
            offset,
            day_seconds=day_seconds,
            drift_per_day=drift_per_day,
        )
        medians[placement.sensor_id] = float(np.median(values))
        # Robust spread estimate (half the central 68% range); the
        # subscription generator expresses filter widths in these units
        # so selectivity is comparable across attributes.
        lo, hi = np.percentile(values, [16.0, 84.0])
        spreads[placement.sensor_id] = max(float(hi - lo) / 2.0, 1e-6)
        jitters = rng.uniform(-cfg.jitter, cfg.jitter, size=cfg.rounds)
        for r in range(cfg.rounds):
            timestamp = max(float(round_times[r]) + float(jitters[r]), 1e-9)
            if not schedule.alive_at(placement.sensor_id, timestamp):
                continue  # away sensors publish nothing
            events.append(
                SimpleEvent(
                    placement.sensor_id,
                    placement.attribute.name,
                    placement.location,
                    float(values[r]),
                    timestamp,
                    seq=r,
                )
            )
    events.sort(key=lambda e: (e.timestamp, e.sensor_id))
    return Replay(
        events,
        medians,
        spreads,
        cfg,
        round_times=tuple(float(t) for t in round_times),
        churn=schedule,
        span=span,
    )
