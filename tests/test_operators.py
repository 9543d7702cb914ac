"""Tests for correlation operators: projection, splitting, coverage."""

import pytest

from repro.model import (
    IdentifiedSubscription,
    Interval,
    Location,
    SimpleEvent,
)
from repro.model.operators import CorrelationOperator, Slot, root_operator
from repro.model.subscriptions import AbstractSubscription
from repro.model.locations import RectRegion

from deployments import advertised, identified_operator


def sub3(delta_t=5.0):
    return IdentifiedSubscription.from_ranges(
        "s", {"a": ("t", 0, 10), "b": ("t", 20, 30), "c": ("t", 40, 50)}, delta_t
    )


def op3(delta_t=5.0):
    return identified_operator(sub3(delta_t), "n0")


def slots_of(operator):
    return {s.slot_id: s for s in operator.slots}


def ev(sensor, value, ts=0.0, seq=0):
    return SimpleEvent(sensor, "t", Location(0, 0), value, ts, seq)


class TestConstruction:
    def test_root_from_identified(self):
        op = op3()
        assert slots_of(op).keys() == {"a", "b", "c"}
        assert op.sensors == {"a", "b", "c"}
        assert not op.is_simple and not op.is_binary_join
        assert op.op_id == "s[a,b,c]"

    def test_root_from_abstract(self):
        region = RectRegion(Interval(0, 10), Interval(0, 10))
        s = AbstractSubscription.from_ranges("s", {"t": (0, 5)}, region, 2.0)
        op = root_operator(s, "n0", advertised({"d1": "t", "d2": "t"}))
        assert slots_of(op)["t"].sensors == {"d1", "d2"}
        assert root_operator(s, "n0", advertised({"d3": "u"})) is None

    def test_duplicate_slots_rejected(self):
        slot = Slot("a", "t", Interval(0, 1), frozenset({"a"}))
        with pytest.raises(ValueError):
            CorrelationOperator("s", "n", [slot, slot], 1.0)

    def test_main_slot_must_exist(self):
        slot = Slot("a", "t", Interval(0, 1), frozenset({"a"}))
        with pytest.raises(ValueError):
            CorrelationOperator("s", "n", [slot], 1.0, main_slot="zzz")


class TestMatchingHelpers:
    def test_slot_accepts(self):
        op = op3()
        assert op.slot_for_event(ev("a", 5.0)).slot_id == "a"
        assert op.slot_for_event(ev("a", 11.0)) is None
        assert op.slot_for_event(ev("x", 5.0)) is None
        assert op.accepts_some(ev("b", 25.0))


class TestProjection:
    def test_project_subset(self):
        piece = op3().project(["a", "b"])
        assert slots_of(piece).keys() == {"a", "b"}
        assert piece.subscription_id == "s" and piece.subscriber == "n0"
        assert piece.op_id == "s[a,b]"

    def test_project_unknown_slot(self):
        with pytest.raises(KeyError):
            op3().project(["a", "zzz"])

    def test_project_sensors_restricts(self):
        piece = op3().project_sensors(["b", "c"])
        assert slots_of(piece).keys() == {"b", "c"}
        assert op3().project_sensors(["nope"]) is None

    def test_project_sensors_narrows_abstract_slot(self):
        region = RectRegion(Interval(0, 10), Interval(0, 10))
        s = AbstractSubscription.from_ranges("s", {"t": (0, 5)}, region, 2.0)
        op = root_operator(s, "n0", advertised({"d1": "t", "d2": "t", "d3": "t"}))
        piece = op.project_sensors(["d2"])
        assert slots_of(piece)["t"].sensors == {"d2"}

    def test_project_sensors_keeping_every_slot_whole_is_the_operator(self):
        whole = op3()
        assert whole.project_sensors(["c", "a", "b", "elsewhere"]) is whole
        # A dropped slot, a narrowed slot: a new, unequal operator.
        dropped = whole.project_sensors(["a", "b"])
        assert dropped is not whole and dropped != whole
        region = RectRegion(Interval(0, 10), Interval(0, 10))
        s = AbstractSubscription.from_ranges("s", {"t": (0, 5)}, region, 2.0)
        wide = root_operator(s, "n0", advertised({"d1": "t", "d2": "t"}))
        assert wide.project_sensors(["d1", "d2"]) is wide
        narrowed = wide.project_sensors(["d1"])
        assert narrowed != wide and narrowed.op_id == wide.op_id
        # A binary join loses its main slot when projected: never itself.
        join = whole.binary_joins()[0]
        assert join.project_sensors(join.sensors) != join


class TestBinaryJoins:
    def test_single_slot_unchanged(self):
        simple = op3().project(["a"])
        assert simple.binary_joins() == [simple]

    def test_two_slots_ring_of_two(self):
        # Each stream must be the main of one join — otherwise the
        # non-main stream's events never travel toward the user and
        # the instances they anchor are lost (recall < 1).
        two = op3().project(["a", "b"])
        joins = two.binary_joins()
        assert len(joins) == 2
        assert all(j.is_binary_join for j in joins)
        assert sorted(j.main_slot for j in joins) == ["a", "b"]

    def test_ring_pairing(self):
        joins = op3().binary_joins()
        assert len(joins) == 3
        mains = [j.main_slot for j in joins]
        assert sorted(mains) == ["a", "b", "c"]
        for j in joins:
            assert len(j.slots) == 2 and j.is_binary_join

    def test_binary_join_ids_distinct(self):
        ids = {j.op_id for j in op3().binary_joins()}
        assert len(ids) == 3


class TestCoverage:
    def test_self_coverage(self):
        assert op3().covers(op3())

    def test_wider_covers_narrower(self):
        narrow = identified_operator(
            IdentifiedSubscription.from_ranges(
                "s2", {"a": ("t", 2, 8), "b": ("t", 22, 28), "c": ("t", 42, 48)}, 5.0
            ),
            "n1",
        )
        assert op3().covers(narrow)
        assert not narrow.covers(op3())

    def test_different_slots_never_cover(self):
        assert not op3().project(["a", "b"]).covers(op3())
        assert not op3().covers(op3().project(["a", "b"]))

    def test_delta_t_direction(self):
        loose = op3(delta_t=10.0)
        tight_sub = IdentifiedSubscription.from_ranges(
            "s2", {"a": ("t", 0, 10), "b": ("t", 20, 30), "c": ("t", 40, 50)}, 5.0
        )
        tight = identified_operator(tight_sub, "n1")
        assert loose.covers(tight)
        assert not tight.covers(loose)

    def test_binary_join_signature_distinct(self):
        joins = op3().binary_joins()
        ab = next(j for j in joins if j.main_slot == "a")
        plain = op3().project(["a", "b"])
        assert not ab.covers(plain) and not plain.covers(ab)

    def test_widened(self):
        w = op3().widened(1.0)
        assert slots_of(w)["a"].interval == Interval(-1, 11)
        assert op3().covers(op3()) and w.covers(op3())
        assert not op3().covers(w)
