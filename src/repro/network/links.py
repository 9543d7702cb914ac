"""Traffic metering.

The experiments compare approaches on *network traffic*: every message
crossing a link is charged to the metric of its kind.  The meter keeps
global totals (what the figures plot) and per-link breakdowns (useful
for hot-spot analysis of the centralized scheme and for tests that pin
down where traffic is saved).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, fields

from .messages import Message

LinkId = tuple[str, str]
"""Directed link: (sender node id, receiver node id)."""


@dataclass(frozen=True, slots=True)
class TrafficSnapshot:
    """Immutable totals at one instant — what experiment points record.

    ``teardown_units`` is the *subset* of ``subscription_units`` that
    travelled as :class:`UnsubscribeMessage` — both sides of a
    submit/cancel pair bill the subscription channel, but the admit/
    retire experiments report registration and teardown separately.
    ``retransmission_units`` and ``refresh_units`` are likewise subsets
    (units re-sent by the reliability layer's ack timers, and units
    carried by soft-state refresh rounds): the reliability overhead
    figure 18 plots.  ``sketch_units`` is the approximate lane's share
    (group registrations on the subscription channel, digest pushes on
    the event channel) — figures 21-22 split it out the same way.
    ``dropped_messages`` counts transmissions the fault lane lost (or
    that arrived at a crashed broker).
    """

    subscription_units: int
    event_units: int
    advertisement_units: int
    messages: int
    teardown_units: int = 0
    retransmission_units: int = 0
    refresh_units: int = 0
    dropped_messages: int = 0
    sketch_units: int = 0

    def minus(self, baseline: "TrafficSnapshot") -> "TrafficSnapshot":
        """Traffic accumulated since ``baseline`` was taken."""
        return TrafficSnapshot(
            *(getattr(self, c) - getattr(baseline, c) for c in CHANNELS)
        )


CHANNELS = tuple(f.name for f in fields(TrafficSnapshot))
"""The snapshot's field names, in order: what a meter reading copies."""


class TrafficMeter:
    """Accumulates per-kind unit counts, globally and per directed link."""

    def __init__(self) -> None:
        self.subscription_units = 0
        self.event_units = 0
        self.advertisement_units = 0
        self.messages = 0
        self.teardown_units = 0
        self.retransmission_units = 0
        self.refresh_units = 0
        self.dropped_messages = 0
        self.sketch_units = 0
        self.per_link: Counter[LinkId] = Counter()
        self.per_link_events: Counter[LinkId] = Counter()
        self.per_link_subscriptions: Counter[LinkId] = Counter()

    def record(
        self,
        link: LinkId,
        message: Message,
        retransmission: bool = False,
    ) -> None:
        """Charge ``message`` crossing the directed ``link``.

        ``retransmission=True`` marks a reliability-layer resend: it
        bills every channel like the original copy and additionally the
        ``retransmission_units`` subset.  The other subsets are read off
        what the message class declares (``repro.network.messages``).
        """
        sub = message.subscription_units
        evt = message.event_units
        adv = message.advertisement_units
        total = sub + evt + adv
        self.subscription_units += sub
        self.event_units += evt
        self.advertisement_units += adv
        self.messages += 1
        if message.teardown:
            self.teardown_units += sub
        if retransmission:
            self.retransmission_units += total
        if message.refresh_epoch is not None:
            self.refresh_units += sub + adv
        self.sketch_units += message.sketch_units
        self.per_link[link] += total
        if evt:
            self.per_link_events[link] += evt
        if sub:
            self.per_link_subscriptions[link] += sub

    def record_path(
        self,
        links: Sequence[LinkId],
        message: Message,
        retransmission: bool = False,
    ) -> None:
        """Charge one transfer of ``message`` along ``links`` in order.

        The centralized baseline's unicast crosses a whole shortest
        path: every hop bills every channel and its own link, and the
        transfer counts as one message.
        """
        if len(links) == 1:
            self.record(links[0], message, retransmission)
            return
        for link in links:
            self.record(link, message, retransmission)
        self.messages -= len(links) - 1

    def record_drop(self) -> None:
        """Count one transmission lost by the fault lane."""
        self.dropped_messages += 1

    def snapshot(self) -> TrafficSnapshot:
        return TrafficSnapshot(*(getattr(self, c) for c in CHANNELS))

    def busiest_links(self, n: int = 5) -> list[tuple[LinkId, int]]:
        """The ``n`` most loaded directed links (unit totals)."""
        return self.per_link.most_common(n)
