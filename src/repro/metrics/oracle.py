"""Offline matching oracle — ground truth for the recall metric.

With global knowledge of every published event, enumerate for each
subscription the true *match instances*: pairs ``(subscription,
trigger)`` where the trigger is the maximum-timestamp member of some
valid complex event.  The per-instance participants are collected too,
so the multi-join baseline's false positives (delivered events that are
part of no true match) can be quantified.

Two interchangeable truth passes exist:

* ``method="engine"`` (the default) reuses the incremental matching
  engine's per-operator slot timelines and grid-pruned spatial search
  (:mod:`repro.matching`) in an offline harness — filter acceptance is
  evaluated once per (event, slot) instead of once per candidate
  trigger, which is what makes full-scale figure runs affordable;
* ``method="reference"`` is the original per-trigger window rescan over
  :class:`EventIndex`, kept in-tree as the semantics oracle for the
  oracle itself — ``tests/test_oracle_engine.py`` machine-checks that
  both passes produce identical triggers and participants.  Nothing
  above this module selects it: tests reach it through ``method=``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..matching.engine import OperatorMatcher
from ..model.events import EventKey, SimpleEvent
from ..model.matching import instance_exists, match_at_trigger
from ..model.operators import CorrelationOperator, root_operator
from ..model.subscriptions import (
    AbstractSubscription,
    IdentifiedSubscription,
    Subscription,
)
from ..network.topology import Deployment

ORACLE_METHODS = ("engine", "reference")


class EventIndex:
    """SlotEventProvider over an arbitrary event collection."""

    def __init__(self, events: Iterable[SimpleEvent]) -> None:
        self._by_sensor: dict[str, list[tuple[float, int, SimpleEvent]]] = {}
        self.by_key: dict[EventKey, SimpleEvent] = {}
        for event in events:
            self._by_sensor.setdefault(event.sensor_id, []).append(
                (event.timestamp, event.seq, event)
            )
            self.by_key[event.key] = event
        for timeline in self._by_sensor.values():
            timeline.sort()

    def events_for_sensor(
        self, sensor_id: str, after: float, until: float
    ) -> Sequence[SimpleEvent]:
        timeline = self._by_sensor.get(sensor_id)
        if not timeline:
            return ()
        lo = bisect.bisect_right(timeline, (after, float("inf")))
        hi = bisect.bisect_right(timeline, (until, float("inf")))
        return [entry[2] for entry in timeline[lo:hi]]

    def events_of(self, sensor_ids: Iterable[str]) -> list[SimpleEvent]:
        out: list[SimpleEvent] = []
        for sensor_id in sensor_ids:
            out.extend(e for _, _, e in self._by_sensor.get(sensor_id, ()))
        return out


class _FencedIndex:
    """Churn view over an :class:`EventIndex`.

    As the truth sweep crosses a scheduled departure, :meth:`fence`
    hides the departed sensor's earlier events from every subsequent
    window query — the offline equivalent of the store-level fence a
    retraction flood applies online.  Events after a re-join have later
    timestamps than the fence and stay visible.
    """

    __slots__ = ("_index", "_fences")

    def __init__(self, index: EventIndex) -> None:
        self._index = index
        self._fences: dict[str, float] = {}

    def fence(self, sensor_id: str, until: float) -> None:
        previous = self._fences.get(sensor_id)
        if previous is None or until > previous:
            self._fences[sensor_id] = until

    def events_for_sensor(
        self, sensor_id: str, after: float, until: float
    ) -> Sequence[SimpleEvent]:
        fence = self._fences.get(sensor_id)
        if fence is not None and fence > after:
            after = fence
        return self._index.events_for_sensor(sensor_id, after, until)


@dataclass
class SubscriptionTruth:
    """Ground truth for one subscription."""

    sub_id: str
    operator: CorrelationOperator
    triggers: set[EventKey] = field(default_factory=set)
    participants: set[EventKey] = field(default_factory=set)

    @property
    def n_instances(self) -> int:
        return len(self.triggers)


def oracle_operator(
    subscription: Subscription, deployment: Deployment
) -> CorrelationOperator:
    """Root operator resolved with global deployment knowledge."""
    if isinstance(subscription, IdentifiedSubscription):
        return root_operator(subscription, "oracle")
    assert isinstance(subscription, AbstractSubscription)
    sensors: dict[str, list[str]] = {}
    for clause in subscription.clauses:
        sensors[clause.attribute] = sorted(
            s.sensor_id
            for s in deployment.sensors
            if s.attribute.name == clause.attribute
            and clause.region.contains(s.location)
        )
    return root_operator(subscription, "oracle", sensors)


class _OfflineEngine:
    """Minimal :class:`~repro.matching.engine.MatchingEngine` stand-in.

    The offline oracle has no event store and no expiry: every replayed
    event is visible forever, so the horizon an
    :class:`OperatorMatcher` clamps against sits at ``-inf`` and its
    prune sweeps hit the O(1) nothing-expired fast path.  Nothing
    mirrors a store into the matcher here: the oracle ingests and
    fences it directly.
    """

    __slots__ = ()

    horizon = float("-inf")


_OFFLINE_ENGINE = _OfflineEngine()


def operator_truth(
    operator: CorrelationOperator,
    sub_id: str,
    index: EventIndex,
    method: str = "engine",
    churn=None,
    cancelled_at: float | None = None,
    activated_at: float | None = None,
) -> SubscriptionTruth:
    """Ground truth of one resolved operator over an indexed event set.

    ``method="reference"`` rescans windows via the reference matcher;
    ``method="engine"`` ingests the operator's events into an offline
    :class:`OperatorMatcher` once and answers every trigger probe from
    its per-slot timelines.  Both enumerate the identical candidate
    triggers (events of the operator's own sensors that fill a slot) and
    produce identical ``triggers`` / ``participants`` sets.

    ``churn`` (a :class:`~repro.workload.sensorscope.ChurnSchedule`,
    already shifted to the replay clock) makes the truth churn-aware:
    candidate triggers are swept in timestamp order, and every scheduled
    departure fences the departed sensor's earlier events out of all
    later windows — an instance is credited only when each participant's
    sensor stayed alive through the trigger time.  Both passes apply the
    identical fence, so engine/reference equivalence is preserved under
    churn.

    ``cancelled_at`` / ``activated_at`` fence the subscription's
    *lifetime* exactly like sensor churn fences a sensor's: the query
    exists on ``[activated_at, cancelled_at]`` (each side optional), so
    only instances *triggered* inside that closed interval are truth —
    the same priority-1 tie-break churn uses, where an event stamped at
    the exact transition instant still counts.  The activation side is
    what keeps a *resubmitted* query id from inheriting its previous
    incarnation's truth.  Only the trigger is fenced: a freshly placed
    query legitimately matches against earlier, still-valid events
    already in the stores (the matcher backfill), so members may
    predate the activation — exactly as the live network delivers.
    Members never postdate a trigger, so the cancellation side fences
    members and triggers alike.
    """
    truth = SubscriptionTruth(sub_id, operator)
    candidates = index.events_of(sorted(operator.sensors))
    if cancelled_at is not None:
        candidates = [e for e in candidates if e.timestamp <= cancelled_at]
    triggers = candidates
    if activated_at is not None:
        triggers = [e for e in candidates if e.timestamp >= activated_at]
    departures: list[tuple[float, str]] = []
    if churn is not None:
        departures = [
            (t, sensor_id)
            for t, sensor_id in churn.departures()
            if sensor_id in operator.sensors
        ]
    if departures:
        # The fence sweeps below assume monotone trigger times.
        candidates.sort(key=lambda e: (e.timestamp, e.key))
        if triggers is not candidates:
            triggers.sort(key=lambda e: (e.timestamp, e.key))
    next_departure = 0

    if method == "reference":
        provider = _FencedIndex(index) if departures else index
        for event in triggers:
            while (
                next_departure < len(departures)
                and departures[next_departure][0] <= event.timestamp
            ):
                when, sensor_id = departures[next_departure]
                provider.fence(sensor_id, when)
                next_departure += 1
            if operator.slot_for_event(event) is None:
                continue
            if not instance_exists(operator, provider, event):
                continue
            truth.triggers.add(event.key)
            found = match_at_trigger(operator, provider, event.timestamp)
            if found:
                for members in found.values():
                    truth.participants.update(m.key for m in members)
        return truth
    if method != "engine":
        raise ValueError(
            f"unknown oracle method {method!r}; expected one of {ORACLE_METHODS}"
        )
    matcher = OperatorMatcher(operator, _OFFLINE_ENGINE)
    for event in candidates:
        matcher.ingest(event)
    # Equal-timestamp triggers share one window; memoise per timestamp
    # (the reference recomputes — same result, it is the slow path).
    # The memo stays sound under churn: fences are applied before the
    # first probe at a timestamp, and equal timestamps see equal fences.
    participants_at: dict[float, dict | None] = {}
    for event in triggers:
        while (
            next_departure < len(departures)
            and departures[next_departure][0] <= event.timestamp
        ):
            when, sensor_id = departures[next_departure]
            matcher.fence_sensor(sensor_id, when)
            next_departure += 1
        if operator.slot_for_event(event) is None:
            continue
        if not matcher.instance_exists(event):
            continue
        truth.triggers.add(event.key)
        t_star = event.timestamp
        if t_star not in participants_at:
            participants_at[t_star] = matcher.match_at_trigger(t_star)
        found = participants_at[t_star]
        if found:
            for members in found.values():
                truth.participants.update(m.key for m in members)
    return truth


def compute_truth(
    subscriptions: Iterable[Subscription],
    deployment: Deployment,
    events: Sequence[SimpleEvent],
    method: str = "engine",
    churn=None,
    cancellations: Mapping[str, float] | None = None,
    activations: Mapping[str, float] | None = None,
    outages: Sequence[tuple[str, float, float]] | None = None,
) -> dict[str, SubscriptionTruth]:
    """Enumerate every true match instance of every subscription.

    Only events produced by a subscription's own sensors can trigger it,
    so the scan is proportional to (subscriptions x their group's
    events), not (subscriptions x all events).  ``method`` selects the
    truth pass (see module docstring).  ``churn`` — the scenario's churn
    schedule, shifted to the same clock as ``events`` — fences departed
    sensors' history (see :func:`operator_truth`).  ``cancellations`` /
    ``activations`` map subscription ids to the simulation times their
    ``cancel()`` / ``submit()`` ran; the query's truth is fenced to
    that lifetime exactly like a departed sensor's history — which also
    keeps resubmitted ids from inheriting their previous incarnation's
    truth.

    ``outages`` — ``(sensor_id, down_from, down_until)`` fences from a
    fault plan's correlated broker outages (already on the ``events``
    clock) — excludes the publications a crashed host dropped: a reading
    stamped inside the half-open window ``(down_from, down_until]``
    never left the broker, so no approach could deliver it and the
    oracle never charges it.  Unlike churn there is no retraction flood,
    so the sensor's *earlier* events stay visible — the network still
    holds them, matching online behaviour.  Applied identically before
    both truth passes (the filter shapes the index both passes share).
    """
    if outages:
        windows: dict[str, list[tuple[float, float]]] = {}
        for sensor_id, down_from, down_until in outages:
            windows.setdefault(sensor_id, []).append((down_from, down_until))
        events = [
            e
            for e in events
            if not any(
                down_from < e.timestamp <= down_until
                for down_from, down_until in windows.get(e.sensor_id, ())
            )
        ]
    index = EventIndex(events)
    truths: dict[str, SubscriptionTruth] = {}
    for subscription in subscriptions:
        operator = oracle_operator(subscription, deployment)
        truths[subscription.sub_id] = operator_truth(
            operator,
            subscription.sub_id,
            index,
            method,
            churn=churn,
            cancelled_at=(
                cancellations.get(subscription.sub_id)
                if cancellations is not None
                else None
            ),
            activated_at=(
                activations.get(subscription.sub_id)
                if activations is not None
                else None
            ),
        )
    return truths
