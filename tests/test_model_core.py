"""Tests for attributes, events, advertisements, filters, subscriptions."""

import math

import pytest

from repro.model import (
    Advertisement,
    AdvertisementTable,
    AttributeType,
    ComplexEvent,
    IdentifiedSubscription,
    AbstractSubscription,
    Interval,
    Location,
    RectRegion,
    SimpleEvent,
    SimpleFilter,
    root_operator,
)
from repro.model.filters import AbstractFilter, IdentifiedFilter


def ev(sensor="d1", attr="t", value=1.0, ts=0.0, seq=0, loc=(0.0, 0.0)):
    return SimpleEvent(sensor, attr, Location(*loc), value, ts, seq)


class TestAttributes:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            AttributeType("bad", Interval(1, 0))


class TestEvents:
    def test_event_key_identity(self):
        assert ev(seq=3).key == ("d1", 3)

    def test_event_key_is_built_once(self):
        """The key is a stored field, not a property: every reader shares
        one tuple per reading.  It survives pickling, is rebuilt by
        ``dataclasses.replace`` and takes no part in ``==``, ``hash`` or
        ``repr``."""
        import pickle
        from dataclasses import replace

        e = ev(seq=3)
        assert e.key is e.key
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and copy.key == ("d1", 3)
        assert replace(e, seq=4).key == ("d1", 4)
        assert replace(e, sensor_id="d2").key == ("d2", 3)
        with pytest.raises(ValueError):
            replace(e, key=("d9", 9))  # not an init field
        forged = ev(seq=3)
        object.__setattr__(forged, "key", ("d9", 9))
        assert forged == e and hash(forged) == hash(e)
        assert "key" not in repr(e)

    def test_complex_event_orders_members(self):
        c = ComplexEvent([ev(ts=5.0), ev(sensor="d2", ts=1.0)])
        assert [e.timestamp for e in c.events] == [1.0, 5.0]

    def test_complex_event_timestamp_is_max(self):
        c = ComplexEvent([ev(ts=1.0), ev(sensor="d2", ts=9.0)])
        assert c.timestamp == 9.0
        assert c.trigger.sensor_id == "d2"

    def test_complex_event_spreads(self):
        c = ComplexEvent([ev(ts=1.0, loc=(0, 0)), ev(sensor="d2", ts=3.0, loc=(3, 4))])
        assert c.temporal_spread == 2.0
        assert c.spatial_spread == pytest.approx(5.0)

    def test_complex_event_requires_members(self):
        with pytest.raises(ValueError):
            ComplexEvent([])

    def test_complex_event_sets(self):
        c = ComplexEvent([ev(), ev(sensor="d2", attr="u", seq=1)])
        assert c.sensor_ids == {"d1", "d2"}
        assert c.attributes == {"t", "u"}
        assert len(c) == 2

    def test_timestamp_and_value_pinned_to_float(self):
        """Constructors may pass ints or numpy scalars (replay rounds,
        grid timestamps, fault-jittered arrivals) — the event always
        stores plain ``float`` so tuple comparisons against numpy
        float64 columns never mix dtypes."""
        import numpy as np

        for raw_ts, raw_value in (
            (3, 7),
            (np.int64(3), np.int64(7)),
            (np.float64(3.5), np.float64(7.25)),
            (np.float32(3.5), np.float32(7.25)),
        ):
            event = ev(ts=raw_ts, value=raw_value)
            assert type(event.timestamp) is float, type(raw_ts)
            assert type(event.value) is float, type(raw_value)
            assert event.timestamp == float(raw_ts)
            assert event.value == float(raw_value)


class TestAdvertisementTable:
    def test_local_and_neighbor_next_hops(self):
        table = AdvertisementTable()
        table.add(table.LOCAL, Advertisement("d1", "t", Location(0, 0)))
        table.add("n2", Advertisement("d2", "t", Location(1, 1)))
        assert table.partition_by_origin(["d1", "d2", "unknown"]) == {
            AdvertisementTable.LOCAL: ["d1"],
            "n2": ["d2"],
        }
        assert "d1" in table.known_ids and "d9" not in table.known_ids
        assert table.known_ids == {"d1", "d2"}

    def test_duplicate_advertisement_not_new(self):
        table = AdvertisementTable()
        ad = Advertisement("d1", "t", Location(0, 0))
        assert table.add("n1", ad)
        assert not table.add("n1", ad)

    def test_sensors_matching_with_region(self):
        table = AdvertisementTable()
        table.add("n1", Advertisement("d1", "t", Location(0, 0)))
        table.add("n2", Advertisement("d2", "t", Location(50, 50)))
        table.add("n2", Advertisement("d3", "u", Location(0, 0)))
        region = RectRegion(Interval(-1, 1), Interval(-1, 1))
        hits = table.sensors_matching("t", region)
        assert [a.sensor_id for a in hits] == ["d1"]
        assert len(table.sensors_matching("t")) == 2

    def test_partition_by_origin(self):
        table = AdvertisementTable()
        table.add("n1", Advertisement("d1", "t", Location(0, 0)))
        table.add("n1", Advertisement("d2", "t", Location(0, 0)))
        table.add("n2", Advertisement("d3", "t", Location(0, 0)))
        part = table.partition_by_origin(["d1", "d2", "d3", "dX"])
        assert part == {"n1": ["d1", "d2"], "n2": ["d3"]}


class TestFilters:
    def test_simple_filter_matching(self):
        f = SimpleFilter("t", Interval(0, 10))
        assert f.matches_event(ev(value=5.0))
        assert not f.matches_event(ev(value=11.0))
        assert not f.matches_event(ev(attr="u", value=5.0))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SimpleFilter("t", Interval(3, 2))

    def test_identified_filter_pins_sensor(self):
        f = IdentifiedFilter("d1", SimpleFilter("t", Interval(0, 10)))
        assert f.matches_event(ev(value=3.0))
        assert not f.matches_event(ev(sensor="d2", value=3.0))

    def test_abstract_filter_region(self):
        region = RectRegion(Interval(0, 1), Interval(0, 1))
        f = AbstractFilter(SimpleFilter("t", Interval(0, 10)), region)
        assert f.matches_event(ev(value=5.0, loc=(0.5, 0.5)))
        assert not f.matches_event(ev(value=5.0, loc=(2.0, 0.5)))


class TestSubscriptions:
    def test_identified_from_ranges(self):
        s = IdentifiedSubscription.from_ranges(
            "s1", {"a": ("t", 0, 10), "b": ("u", 5, 6)}, 2.0
        )
        assert s.sensor_ids == {"a", "b"}
        assert s.matches_simple(ev(sensor="a", value=3.0))
        assert not s.matches_simple(ev(sensor="c", value=3.0))
        assert [f.attribute for f in s.filters] == ["t", "u"]

    def test_duplicate_sensor_rejected(self):
        f = IdentifiedFilter("a", SimpleFilter("t", Interval(0, 1)))
        with pytest.raises(ValueError):
            IdentifiedSubscription("s", [f, f], 1.0)

    def test_delta_t_positive(self):
        with pytest.raises(ValueError):
            IdentifiedSubscription.from_ranges("s", {"a": ("t", 0, 1)}, 0.0)

    def test_abstract_subscription(self):
        region = RectRegion(Interval(0, 10), Interval(0, 10))
        s = AbstractSubscription.from_ranges(
            "s", {"t": (0, 5), "u": (1, 2)}, region, 2.0, delta_l=3.0
        )
        assert s.attributes == {"t", "u"}
        assert s.matches_simple(ev(value=4.0, loc=(1, 1)))
        assert not s.matches_simple(ev(value=4.0, loc=(20, 1)))

    def test_abstract_resolution(self):
        """The resolver keeps the advertised sensors of each attribute
        inside the region, and drops the query when one attribute has
        none there."""
        region = RectRegion(Interval(0, 10), Interval(0, 10))
        s = AbstractSubscription.from_ranges("s", {"t": (0, 5)}, region, 2.0)
        table = AdvertisementTable()
        table.add("n1", Advertisement("d1", "t", Location(1, 1)))
        table.add("n1", Advertisement("d2", "t", Location(99, 99)))
        table.add("n2", Advertisement("d3", "u", Location(2, 2)))
        op = root_operator(s, "user", table)
        assert [(slot.slot_id, slot.sensors) for slot in op.slots] == [
            ("t", frozenset({"d1"}))
        ]
        assert (op.subscription_id, op.subscriber, op.delta_t) == ("s", "user", 2.0)
        both = AbstractSubscription.from_ranges(
            "s2", {"t": (0, 5), "u": (0, 5)}, region, 2.0
        )
        slots = root_operator(both, "user", table).slots
        assert {slot.slot_id: slot.sensors for slot in slots} == {
            "t": frozenset({"d1"}),
            "u": frozenset({"d3"}),
        }
        table.remove("d1")  # t has no sensor left in the region
        assert root_operator(s, "user", table) is None
        assert root_operator(both, "user", table) is None

    def test_abstract_delta_l_validation(self):
        region = RectRegion(Interval(0, 1), Interval(0, 1))
        with pytest.raises(ValueError):
            AbstractSubscription.from_ranges("s", {"t": (0, 1)}, region, 1.0, delta_l=0.0)
        ok = AbstractSubscription.from_ranges("s", {"t": (0, 1)}, region, 1.0)
        assert math.isinf(ok.delta_l)
