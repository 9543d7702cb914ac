"""Tests for traffic metering and message unit accounting."""

import itertools
from typing import get_args

import pytest

from repro.baselines.centralized import centralized_approach
from repro.model import Advertisement, Interval, Location, SimpleEvent
from repro.model.operators import CorrelationOperator, Slot
from repro.network.links import TrafficMeter, TrafficSnapshot
from repro.network.messages import (
    AdvertisementMessage,
    EventMessage,
    Message,
    OperatorMessage,
    UnsubscribeMessage,
)
from repro.network.network import Network
from repro.network.reliability import ReliabilityConfig
from repro.sim import Simulator
from repro.sketches.messages import SketchPushMessage, SketchSubscribeMessage

from deployments import line_deployment


def _event():
    return SimpleEvent("d", "t", Location(0, 0), 1.0, 0.0, 0)


def _operator():
    return CorrelationOperator(
        "s", "n", [Slot("d", "t", Interval(0, 1), frozenset({"d"}))], 1.0
    )


class TestMessageUnits:
    def test_advertisement_units(self):
        msg = AdvertisementMessage(Advertisement("d", "t", Location(0, 0)))
        assert (msg.advertisement_units, msg.subscription_units, msg.event_units) == (
            1,
            0,
            0,
        )

    def test_operator_units(self):
        msg = OperatorMessage(_operator())
        assert (msg.advertisement_units, msg.subscription_units, msg.event_units) == (
            0,
            1,
            0,
        )

    def test_pubsub_event_is_one_unit(self):
        assert EventMessage(_event()).event_units == 1

    def test_per_stream_event_units(self):
        assert EventMessage(_event(), streams=("a", "b", "c")).event_units == 3


class TestTrafficMeter:
    def test_record_accumulates_by_kind(self):
        meter = TrafficMeter()
        meter.record(("a", "b"), OperatorMessage(_operator()))
        meter.record(("a", "b"), EventMessage(_event()))
        meter.record(("b", "c"), EventMessage(_event(), streams=("x", "y")))
        assert meter.subscription_units == 1
        assert meter.event_units == 3
        assert meter.messages == 3

    def test_hops_multiply_units(self):
        meter = TrafficMeter()
        path = (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"))
        meter.record_path(path, EventMessage(_event()))
        assert meter.event_units == 4
        assert meter.messages == 1

    def test_snapshot_minus(self):
        meter = TrafficMeter()
        meter.record(("a", "b"), OperatorMessage(_operator()))
        before = meter.snapshot()
        meter.record(("a", "b"), EventMessage(_event()))
        delta = meter.snapshot().minus(before)
        assert delta.subscription_units == 0
        assert delta.event_units == 1
        assert delta.messages == 1

    def test_per_link_breakdown_and_busiest(self):
        meter = TrafficMeter()
        for _ in range(3):
            meter.record(("a", "b"), EventMessage(_event()))
        meter.record(("b", "c"), EventMessage(_event()))
        assert meter.per_link_events[("a", "b")] == 3
        assert meter.busiest_links(1) == [(("a", "b"), 3)]

    def test_directions_counted_separately(self):
        meter = TrafficMeter()
        meter.record(("a", "b"), EventMessage(_event()))
        meter.record(("b", "a"), EventMessage(_event()))
        assert meter.per_link[("a", "b")] == 1
        assert meter.per_link[("b", "a")] == 1


def _advertisement(epoch):
    return AdvertisementMessage(
        Advertisement("d", "t", Location(0, 0)), refresh_epoch=epoch
    )


# message(refresh epoch) -> what one copy costs on one link:
# (subscription, event, advertisement, teardown, sketch) units.
# ``None`` marks the classes that cannot be refresh copies.
DECLARED_UNITS = [
    (_advertisement, (0, 0, 1, 0, 0)),
    (lambda epoch: OperatorMessage(_operator(), refresh_epoch=epoch), (1, 0, 0, 0, 0)),
    (lambda _: UnsubscribeMessage("q1"), (1, 0, 0, 1, 0)),
    (lambda _: EventMessage(_event(), streams=("x", "y")), (0, 2, 0, 0, 0)),
    (
        lambda _: SketchSubscribeMessage("g", "t", frozenset({"d"}), "n"),
        (1, 0, 0, 0, 1),
    ),
    (lambda _: SketchPushMessage("g", 1, None, units=4), (0, 4, 0, 0, 4)),
]


class TestRecordOnDeclaredUnits:
    """``TrafficMeter.record`` reads what the message class declares; a
    class missing from this table, or missing a declaration, fails here
    rather than silently costing nothing."""

    def test_the_table_covers_every_message_class(self):
        assert {type(make(None)) for make, _ in DECLARED_UNITS} == set(
            get_args(Message)
        )

    @pytest.mark.parametrize(
        "make, units",
        DECLARED_UNITS,
        ids=[type(make(None)).__name__ for make, _ in DECLARED_UNITS],
    )
    def test_every_channel_and_subset(self, make, units):
        sub, evt, adv, teardown, sketch = units
        for hops, retransmission, epoch in itertools.product(
            (1, 3), (False, True), (None, 2)
        ):
            message = make(epoch)
            refresh = epoch is not None and isinstance(
                message, (AdvertisementMessage, OperatorMessage)
            )
            path = (("a", "b"), ("b", "c"), ("c", "d"))[:hops]
            meter = TrafficMeter()
            meter.record_path(path, message, retransmission)
            case = (type(message).__name__, hops, retransmission, epoch)
            assert meter.snapshot() == TrafficSnapshot(
                subscription_units=sub * hops,
                event_units=evt * hops,
                advertisement_units=adv * hops,
                messages=1,
                teardown_units=teardown * hops,
                retransmission_units=(sub + evt + adv) * hops * retransmission,
                refresh_units=(sub + adv) * hops * refresh,
                dropped_messages=0,
                sketch_units=sketch * hops,
            ), case
            # Every hop bills its own link.
            assert meter.per_link == dict.fromkeys(path, sub + evt + adv), case
            assert meter.per_link_events == (
                dict.fromkeys(path, evt) if evt else {}
            ), case
            assert meter.per_link_subscriptions == (
                dict.fromkeys(path, sub) if sub else {}
            ), case


class TestUnicastBillsEveryHop:
    """The centralized baseline's unicast crosses a whole shortest path:
    every hop bills its own directed link (so ``per_link`` and the
    busiest links name the real hot spots), the channels count units x
    hops, and the transfer is one message."""

    @pytest.mark.parametrize(
        "reliability", [None, ReliabilityConfig()], ids=["inline", "transport"]
    )
    @pytest.mark.parametrize(
        "make",
        [
            lambda: EventMessage(SimpleEvent("a", "t", Location(0, 0), 1.0, 0.0, 0)),
            lambda: OperatorMessage(_operator()),
        ],
        ids=["event", "operator"],
    )
    def test_three_hop_unicast_bills_each_link(self, reliability, make):
        network = Network(
            line_deployment(), Simulator(seed=0), reliability=reliability
        )
        centralized_approach().populate(network)
        center = network.center
        src = next(
            node
            for node in sorted(network.deployment.graph)
            if network.routing.distance(node, center) == 3
        )
        path = network.routing.path(src, center)
        links = list(zip(path, path[1:]))
        message = make()
        network.unicast(src, center, message)
        network.run_to_quiescence()
        meter = network.meter
        assert meter.per_link == dict.fromkeys(links, 1)
        assert meter.busiest_links(3) == [(link, 1) for link in links]
        assert meter.messages == 1
        assert (meter.subscription_units, meter.event_units) == (
            3 * message.subscription_units,
            3 * message.event_units,
        )
        assert meter.per_link_events == (
            dict.fromkeys(links, 1) if message.event_units else {}
        )
        assert meter.per_link_subscriptions == (
            dict.fromkeys(links, 1) if message.subscription_units else {}
        )
