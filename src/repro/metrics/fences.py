"""What no approach could observe — the oracle's fences, stated once.

The recall metric is fair only if the ground truth credits nothing the
network could not have seen.  Three causes hide readings or instances,
and each rule is written here and nowhere else:

* **publication gaps** — a sensor whose host broker is down publishes
  into nothing: its readings stamped inside the half-open outage window
  ``(down_from, down_until]`` never leave the host (crash and recovery
  run at agenda priority 1, so a reading stamped at ``down_from`` goes
  out before the crash and one stamped at ``down_until`` dies with the
  host);
* **departures** — a churn leave floods a retraction that fences the
  sensor's history: its readings stamped at or before the departure
  take part in no window of a trigger at or after it.  A host that is
  down when its sensor leaves can flood nothing, so a departure inside
  an outage of its host takes effect at the outage's end, when the
  recovered broker floods the retraction;
* **lifetimes** — a query exists on the closed interval ``[submit,
  cancel]``.  Its trigger is fenced on both sides; its members only at
  cancel (a fresh query legitimately matches still-valid readings
  stored before it arrived, and members never postdate the trigger).

:class:`Fences` is the frozen value both truth passes and the program
compiler share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..model.events import SimpleEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.faults import OutageWindow
    from ..network.topology import Deployment
    from ..workload.sensorscope import ChurnSchedule

_FOREVER = (-math.inf, math.inf)


@dataclass(frozen=True)
class Fences:
    """Per-sensor gaps and departures, per-subscription lifetimes.

    ``gaps[sensor]`` is a sorted tuple of ``(down_from, down_until)``
    half-open windows; ``departures[sensor]`` the sorted *effective*
    departure times; ``lifetimes[sub_id]`` a closed ``(born, dies)``
    pair (``-inf`` / ``inf`` for an open side).  Sensors and
    subscriptions without an entry are never fenced.  All times are on
    the replayed events' clock.
    """

    gaps: Mapping[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )
    departures: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    lifetimes: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        deployment: "Deployment | None" = None,
        churn: "ChurnSchedule | None" = None,
        outages: Iterable["OutageWindow"] = (),
        offset: float = 0.0,
        activations: Mapping[str, float] | None = None,
        cancellations: Mapping[str, float] | None = None,
    ) -> "Fences":
        """The fences of one run.

        ``churn`` is a :class:`~repro.workload.sensorscope.ChurnSchedule`
        already on the events' clock; ``outages`` are
        :class:`~repro.network.faults.OutageWindow` values on the program
        clock, moved by ``offset`` (the convention of
        ``Network.schedule_outages``) and mapped to the sensors their
        domains host in ``deployment``; ``activations`` /
        ``cancellations`` map query ids to their submit / cancel times.
        """
        gaps: dict[str, list[tuple[float, float]]] = {}
        for window in outages:
            domain = set(window.domain)
            for placement in deployment.sensors:
                if placement.node_id in domain:
                    gaps.setdefault(placement.sensor_id, []).append(
                        (offset + window.start, offset + window.end)
                    )
        sorted_gaps = {s: tuple(sorted(w)) for s, w in sorted(gaps.items())}
        departures: dict[str, list[float]] = {}
        for when, sensor_id in churn.departures() if churn is not None else ():
            for down_from, down_until in sorted_gaps.get(sensor_id, ()):
                if down_from < when <= down_until:
                    when = down_until
                    break
            departures.setdefault(sensor_id, []).append(when)
        activations = activations or {}
        cancellations = cancellations or {}
        return cls(
            gaps=sorted_gaps,
            departures={s: tuple(sorted(t)) for s, t in departures.items()},
            lifetimes={
                sub_id: (
                    activations.get(sub_id, -math.inf),
                    cancellations.get(sub_id, math.inf),
                )
                for sub_id in sorted({*activations, *cancellations})
            },
        )

    def published(self, events: Sequence[SimpleEvent]) -> Sequence[SimpleEvent]:
        """``events`` without the readings that died inside a gap."""
        if not self.gaps:
            return events
        return [
            e
            for e in events
            if not any(
                down_from < e.timestamp <= down_until
                for down_from, down_until in self.gaps.get(e.sensor_id, ())
            )
        ]

    def sweep(self, sensors: Iterable[str]) -> list[tuple[float, str]]:
        """The departures of ``sensors`` as one time-ordered fence list."""
        return sorted(
            (when, sensor_id)
            for sensor_id in sensors
            for when in self.departures.get(sensor_id, ())
        )

    def lifetime(self, sub_id: str) -> tuple[float, float]:
        """The closed ``(born, dies)`` interval a query exists on."""
        return self.lifetimes.get(sub_id, _FOREVER)


NO_FENCES = Fences()
