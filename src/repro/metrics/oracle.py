"""Offline matching oracle — ground truth for the recall metric.

With global knowledge of every published event, enumerate for each
subscription the true *match instances*: pairs ``(subscription,
trigger)`` where the trigger is the maximum-timestamp member of some
valid complex event.  The per-instance participants are collected too,
so the multi-join baseline's false positives (delivered events that are
part of no true match) can be quantified.

Two interchangeable truth passes exist:

* ``method="engine"`` (the default) replays the operator's published
  events into an offline matcher (:func:`repro.matching.engine.replay`,
  the one the recall metric and ``QueryHandle.matches`` replay the
  delivered events into) — filter acceptance is evaluated once per
  (event, slot) instead of once per candidate trigger, which is what
  makes full-scale figure runs affordable;
* ``method="reference"`` is the original per-trigger window rescan over
  :class:`EventIndex`, kept in-tree as the semantics oracle for the
  oracle itself — ``tests/test_oracle_engine.py`` machine-checks that
  both passes produce identical triggers and participants.  Nothing
  above this module selects it: tests reach it through ``method=``.

Either pass runs once per distinct question: it reads of a subscription
only the match structure (sensors, slots, Δt, Δl) and the lifetime —
departures are per sensor, gaps global — so :func:`compute_truth` keys
on that pair, and every clone of a question holds the one frozen answer.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from ..matching.engine import match_structure, replay
from ..model.events import EventKey, SimpleEvent
from ..model.matching import instance_exists, match_at_trigger
from ..model.operators import CorrelationOperator, root_operator
from ..model.subscriptions import Subscription
from ..network.topology import Deployment
from .fences import NO_FENCES, Fences

ORACLE_METHODS = ("engine", "reference")


class EventIndex:
    """SlotEventProvider over the published stream: one ``(timestamp,
    seq, event)`` list per sensor, sorted, answering a window query with
    two bisects.  Both truth passes read each operator's candidates from
    it; the reference pass probes its windows (:class:`_FencedView`)."""

    def __init__(self, events: Iterable[SimpleEvent]) -> None:
        self._by_sensor: dict[str, list[tuple[float, int, SimpleEvent]]] = {}
        for event in events:
            self._by_sensor.setdefault(event.sensor_id, []).append(
                (event.timestamp, event.seq, event)
            )
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


class _FencedView:
    """The reference truth pass's probe target: an :class:`EventIndex`
    behind departure fences.

    It is fenced like the engine pass fences its
    :class:`OperatorMatcher`: :meth:`fence_sensor` hides a departed
    sensor's earlier events from every later window query, the offline
    equivalent of the store-level fence a retraction flood applies
    online.  Events after a re-join are stamped later and stay visible.
    """

    __slots__ = ("_index", "_fences")

    def __init__(self, index: EventIndex) -> None:
        self._index = index
        self._fences: dict[str, float] = {}

    def fence_sensor(self, sensor_id: str, until: float) -> None:
        """Hide ``sensor_id``'s events stamped at or before ``until``."""
        if until > self._fences.get(sensor_id, float("-inf")):
            self._fences[sensor_id] = until

    def events_for_sensor(
        self, sensor_id: str, after: float, until: float
    ) -> Sequence[SimpleEvent]:
        after = max(after, self._fences.get(sensor_id, after))
        return self._index.events_for_sensor(sensor_id, after, until)


@dataclass(frozen=True, slots=True)
class SubscriptionTruth:
    """Ground truth for one subscription.

    ``triggers`` and ``participants`` are frozen: the clones of one
    question share them (:func:`compute_truth`), so none can alter
    another's answer.
    """

    sub_id: str
    operator: CorrelationOperator
    triggers: frozenset[EventKey]
    participants: frozenset[EventKey]

    @property
    def n_instances(self) -> int:
        return len(self.triggers)


def oracle_operator(
    subscription: Subscription, deployment: Deployment
) -> CorrelationOperator | None:
    """Root operator resolved with global deployment knowledge; None
    when a source is absent, exactly where the nodes drop it."""
    return root_operator(subscription, "oracle", deployment.advertisements)


def operator_truth(
    operator: CorrelationOperator,
    sub_id: str,
    index: EventIndex,
    method: str = "engine",
    fences: Fences = NO_FENCES,
) -> SubscriptionTruth:
    """Ground truth of one resolved operator over an indexed event set.

    ``method="reference"`` rescans windows via the reference matcher;
    ``method="engine"`` replays the operator's events into an offline
    matcher once (:func:`repro.matching.engine.replay`) and answers
    every trigger probe from its per-slot timelines.  Both enumerate
    the identical candidate triggers (events of the operator's own
    sensors that fill a slot) and produce identical ``triggers`` /
    ``participants`` sets.

    ``fences`` (see :mod:`repro.metrics.fences`) bounds the query's
    lifetime and its sensors' departures.  Candidate triggers are swept
    in timestamp order, and one sweep fences each departed sensor's
    earlier events out of all later windows on whichever target the
    pass probes — the matcher or the index — so both passes apply the
    identical fence.
    """
    born, dies = fences.lifetime(sub_id)
    candidates = index.events_of(sorted(operator.sensors))
    if dies < math.inf:
        candidates = [e for e in candidates if e.timestamp <= dies]
    triggers = candidates
    if born > -math.inf:
        triggers = [e for e in candidates if e.timestamp >= born]
    departures = fences.sweep(operator.sensors)
    if departures:
        # The fence sweep below assumes monotone trigger times.
        candidates.sort(key=lambda e: (e.timestamp, e.key))
        if triggers is not candidates:
            triggers.sort(key=lambda e: (e.timestamp, e.key))

    if method == "engine":
        target = replay(operator, candidates)
        exists = target.instance_exists
        at_trigger = target.match_at_trigger
    elif method == "reference":
        target = _FencedView(index)
        exists = partial(instance_exists, operator, target)
        at_trigger = partial(match_at_trigger, operator, target)
    else:
        raise ValueError(
            f"unknown oracle method {method!r}; expected one of {ORACLE_METHODS}"
        )
    # Equal-timestamp triggers share one window; memoise per timestamp.
    # The memo stays sound under fences: they are applied before the
    # first probe at a timestamp, and equal timestamps see equal fences.
    participants_at: dict[float, dict | None] = {}
    found_triggers: set[EventKey] = set()
    participants: set[EventKey] = set()
    next_departure = 0
    for event in triggers:
        while (
            next_departure < len(departures)
            and departures[next_departure][0] <= event.timestamp
        ):
            when, sensor_id = departures[next_departure]
            target.fence_sensor(sensor_id, when)
            next_departure += 1
        if operator.slot_for_event(event) is None:
            continue
        if not exists(event):
            continue
        found_triggers.add(event.key)
        t_star = event.timestamp
        if t_star not in participants_at:
            participants_at[t_star] = at_trigger(t_star)
        found = participants_at[t_star]
        if found:
            for members in found.values():
                participants.update(m.key for m in members)
    return SubscriptionTruth(
        sub_id, operator, frozenset(found_triggers), frozenset(participants)
    )


def compute_truth(
    subscriptions: Iterable[Subscription],
    deployment: Deployment,
    events: Sequence[SimpleEvent],
    method: str = "engine",
    fences: Fences = NO_FENCES,
) -> dict[str, SubscriptionTruth]:
    """Enumerate every true match instance of every subscription.

    Only events produced by a subscription's own sensors can trigger it,
    so the scan is proportional to (distinct questions x their group's
    events), not (subscriptions x all events).  ``method`` selects the
    truth pass (see module docstring); ``fences`` — on the same clock as
    ``events`` — says what no approach could observe: readings lost in
    an outage gap, departed sensors' history and each query's lifetime
    (see :mod:`repro.metrics.fences`).  A subscription with an absent
    source gets no entry: the nodes drop it, so it has no true instance.
    Clones share one pass (module docstring) and its stored answer: a
    later clone holds the first truth's two frozensets and its
    operator's ``slots`` tuple, under its own id — so its operator
    equals its own :func:`operator_truth`'s.
    """
    index = EventIndex(fences.published(events))
    truths: dict[str, SubscriptionTruth] = {}
    answered: dict[tuple, SubscriptionTruth] = {}
    for subscription in subscriptions:
        sub_id = subscription.sub_id
        operator = oracle_operator(subscription, deployment)
        if operator is None:
            continue  # dropped for an absent source: no true instance
        key = (match_structure(operator), fences.lifetime(sub_id))
        first = answered.get(key)
        if first is None:
            answered[key] = truths[sub_id] = operator_truth(
                operator, sub_id, index, method, fences
            )
        else:
            clone = CorrelationOperator.__new__(CorrelationOperator)
            clone.__setstate__(
                (
                    sub_id,
                    operator.subscriber,
                    first.operator.slots,
                    operator.delta_t,
                    operator.delta_l,
                    operator.main_slot,
                )
            )
            truths[sub_id] = SubscriptionTruth(
                sub_id, clone, first.triggers, first.participants
            )
    return truths
