"""Offline oracle for the approximate answer lane (figs. 21–22).

:func:`measure_approx` replays the ground truth against every
certified answer the sketch lane produced: for each answered
subscription it counts the events that really fell into the queried
range (honouring churn fences — a retired sensor's history must not
count, exactly as ``EventStore.fence_sensor``, which the lane listens
to, refuses it) and checks the lane's certificate against it.

Two truths per answer:

* ``raw_true_count`` — events whose *value* lies in the closed query
  interval.  This is what a user ultimately cares about and what the
  recall-style accuracy ratio compares against.
* ``true_count`` — the truth the q-digest's error contract is stated
  over: the *quantized* truth (events whose leaf cell falls into the
  cell-aligned query range).

The oracle pass asserts, per answer, that the certified bracket
contains the contract truth and that the midpoint estimate is off by
at most the summary's deterministic ``error_bound`` — the machine
check behind the "observed error <= guaranteed bound" acceptance
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..model.events import SimpleEvent
from .fences import NO_FENCES, Fences

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.network import Network
    from ..workload.sensorscope import ChurnSchedule


@dataclass(frozen=True, slots=True)
class ApproxStats:
    """One answered subscription's certificate checked against truth."""

    sub_id: str
    estimate: int
    lower: int
    upper: int
    true_count: int
    raw_true_count: int
    observed_error: int
    error_bound: int
    n: int
    eps: float
    within_bound: bool

    @property
    def recall(self) -> float:
        """Symmetric count accuracy in ``[0, 1]`` against the raw truth.

        ``min / max`` of estimate and raw truth, so over- and
        under-counting are penalised alike; 1.0 when both are zero
        (vacuous success, mirroring :class:`RecallReport`).
        """
        top = max(self.estimate, self.raw_true_count)
        if top == 0:
            return 1.0
        return min(self.estimate, self.raw_true_count) / top


@dataclass(frozen=True, slots=True)
class ApproxReport:
    """All of one run's answers, oracle-checked."""

    stats: tuple[ApproxStats, ...]

    @property
    def queries(self) -> int:
        return len(self.stats)

    @property
    def mean_recall(self) -> float:
        """Mean per-answer count accuracy (1.0 when nothing answered)."""
        if not self.stats:
            return 1.0
        return sum(s.recall for s in self.stats) / len(self.stats)

    @property
    def max_observed_error(self) -> int:
        return max((s.observed_error for s in self.stats), default=0)

    @property
    def bound_violations(self) -> int:
        """Answers whose certificate failed the oracle check."""
        return sum(1 for s in self.stats if not s.within_bound)


def churn_fences(schedule: "ChurnSchedule | None") -> Fences:
    """The fences of a churn schedule alone (no outages, no lifetimes)."""
    return Fences.build(churn=schedule)


def measure_approx(
    network: "Network",
    events: Iterable[SimpleEvent],
    fences: Fences = NO_FENCES,
) -> ApproxReport:
    """Oracle-check every certified answer of ``network``'s sketch lane.

    ``events`` is the full replayed trace (churned-away readings are
    never synthesized, so no aliveness filter is needed here).  The
    answers postdate all churn, so of ``fences`` (see
    :mod:`repro.metrics.fences`) what counts is each sensor's last
    departure: readings stamped at or before it are excluded from the
    truth, the exact rule the hosting broker's
    ``EventStore.fence_sensor`` applies on the answer side.
    """
    lane = network.sketches
    if lane is None:
        return ApproxReport(stats=())
    last = fences.last_departures()
    trace = fences.published(list(events))
    stats: list[ApproxStats] = []
    answers = lane.query_answers()
    for sub_id in sorted(answers):
        answer = answers[sub_id]
        summary = answer.summary
        values = [
            e.value
            for e in trace
            if e.attribute == answer.attribute
            and e.sensor_id in answer.sensors
            and not (e.sensor_id in last and e.timestamp <= last[e.sensor_id])
        ]
        raw_true = sum(
            1 for v in values if answer.interval.contains(v)
        )
        c_lo, c_hi = summary.query_cells(answer.interval.lo, answer.interval.hi)
        true = sum(1 for v in values if c_lo <= summary.cell(v) <= c_hi)
        observed = abs(answer.estimate - true)
        within = (
            answer.lower <= true <= answer.upper
            and observed <= answer.error_bound
        )
        stats.append(
            ApproxStats(
                sub_id=sub_id,
                estimate=answer.estimate,
                lower=answer.lower,
                upper=answer.upper,
                true_count=true,
                raw_true_count=raw_true,
                observed_error=observed,
                error_bound=answer.error_bound,
                n=answer.n,
                eps=answer.eps,
                within_bound=within,
            )
        )
    return ApproxReport(stats=tuple(stats))
