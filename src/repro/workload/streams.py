"""Synthetic sensor streams standing in for the SensorScope dataset.

The paper replays measurements collected on the Grand St. Bernard pass
(September-October 2007) [6]: ambient temperature, surface temperature,
relative humidity, wind speed and wind direction.  The dataset itself is
not redistributable, so we synthesise per-sensor series with the three
properties the evaluation actually depends on (see DESIGN.md):

* plausible per-attribute value distributions with a well-defined
  median for subscriptions to centre on;
* diurnal structure plus autocorrelated noise, so values drift through
  subscription ranges and matches cluster in time (as real weather
  does) instead of being i.i.d.;
* per-station offsets, so sensors of the same attribute at different
  stations have different medians (subscriptions targeting different
  groups differ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..model.attributes import AttributeType


@dataclass(frozen=True, slots=True)
class StreamProfile:
    """Shape parameters of one attribute's synthetic signal."""

    mean: float
    diurnal_amplitude: float
    noise_sigma: float
    station_sigma: float


AR_COEFFICIENT = 0.8
"""Lag-one autocorrelation of every stream's AR(1) noise."""


# High-alpine autumn profiles for the five SensorScope attributes.
STREAM_PROFILES: Mapping[str, StreamProfile] = {
    "ambient_temperature": StreamProfile(1.5, 5.0, 1.2, 2.0),
    "surface_temperature": StreamProfile(3.0, 8.0, 1.8, 2.5),
    "relative_humidity": StreamProfile(72.0, 14.0, 5.0, 6.0),
    "wind_speed": StreamProfile(5.5, 2.5, 1.8, 1.5),
    "wind_direction": StreamProfile(225.0, 40.0, 20.0, 30.0),
}

DEFAULT_PROFILE = StreamProfile(50.0, 10.0, 4.0, 5.0)

SECONDS_PER_DAY = 86_400.0


def profile_for(attribute: AttributeType) -> StreamProfile:
    return STREAM_PROFILES.get(attribute.name, DEFAULT_PROFILE)


def station_offset(
    attribute: AttributeType, group: int, rng: np.random.Generator
) -> float:
    """Per-station shift of the attribute's mean (deterministic per rng)."""
    return float(rng.normal(0.0, profile_for(attribute).station_sigma))


def synthesize_stream_at(
    attribute: AttributeType,
    times: np.ndarray,
    rng: np.random.Generator,
    station_offset: float = 0.0,
    day_seconds: float = SECONDS_PER_DAY,
    drift_per_day: float = 0.0,
) -> np.ndarray:
    """One sensor's values at arbitrary (sorted) ``times``.

    Diurnal sinusoid + AR(1) noise around a station-shifted mean,
    clipped to the attribute's physical domain.  Both campaigns draw
    through it: the static one on a fixed clock with a real day and no
    drift, the dynamic one on a bursty clock where the sinusoid runs
    on a compressed ``day_seconds`` period (multi-day campaigns stay
    affordable) and a linear per-day drift of ``drift_per_day``
    noise-sigmas shifts the mean — over several days values wander
    through subscription ranges the way a weather front moves a whole
    station, which is what makes long replays more than a repeated day
    one.  AR(1) noise is stepped once per sample regardless of the
    (possibly uneven) spacing — a deliberate simplification: the
    matcher only cares that consecutive readings correlate, not about
    the exact decorrelation time.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return times.copy()
    if day_seconds <= 0:
        raise ValueError("day_seconds must be positive")
    profile = profile_for(attribute)
    diurnal = profile.diurnal_amplitude * np.sin(2 * np.pi * times / day_seconds)
    drift = drift_per_day * profile.noise_sigma * (times / day_seconds)
    n = times.size
    noise = np.empty(n)
    noise[0] = rng.normal(0.0, profile.noise_sigma)
    innovations = rng.normal(
        0.0,
        profile.noise_sigma * np.sqrt(1 - AR_COEFFICIENT**2),
        size=n,
    )
    for i in range(1, n):
        noise[i] = AR_COEFFICIENT * noise[i - 1] + innovations[i]
    values = profile.mean + station_offset + diurnal + drift + noise
    return np.clip(values, attribute.domain.lo, attribute.domain.hi)


def bursty_round_times(
    rounds: int,
    base_gap: float,
    rng: np.random.Generator,
    day_seconds: float = SECONDS_PER_DAY,
    rate_amplitude: float = 0.0,
    burst_shape: float = 2.5,
) -> np.ndarray:
    """Timestamps of ``rounds`` sampling rounds with realistic pacing.

    Two departures from the fixed round period of the static replay:

    * **diurnal rate modulation** — the instantaneous publication rate is
      ``1 + rate_amplitude * sin(2*pi*t/day)``, so rounds bunch up during
      the "active" half of each day and thin out at night;
    * **Pareto burstiness** — each gap is multiplied by a unit-mean
      heavy-tailed factor ``(1 + Pareto(shape)) * (shape-1)/shape``:
      most gaps shrink slightly, a heavy tail of long lulls separates
      bursts (the classic shape of real sensor uplinks).

    Gaps are never allowed below 5% of ``base_gap``, so successive
    rounds stay distinguishable and per-round jitter cannot reorder
    them into a different round.
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    if not 0 <= rate_amplitude < 1:
        raise ValueError("rate_amplitude must be in [0, 1)")
    if burst_shape <= 1:
        raise ValueError("burst_shape must exceed 1 (finite mean)")
    times = np.empty(rounds)
    t = 0.0
    norm = (burst_shape - 1.0) / burst_shape  # unit-mean burst factor
    floor = 0.05 * base_gap
    for r in range(rounds):
        rate = 1.0 + rate_amplitude * np.sin(2 * np.pi * t / day_seconds)
        burst = (1.0 + float(rng.pareto(burst_shape))) * norm
        t += max(base_gap * burst / rate, floor)
        times[r] = t
    return times
