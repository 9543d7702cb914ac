"""Tests for the complex-event matching semantics (Section IV-A)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.oracle import EventIndex
from repro.model import (
    ComplexEvent,
    IdentifiedSubscription,
    Interval,
    Location,
    RectRegion,
    SimpleEvent,
    complex_event_matches,
    instance_exists,
    match_at_trigger,
    matches_involving,
)
from repro.model.matching import build_complex_events
from repro.model.operators import root_operator
from repro.model.subscriptions import AbstractSubscription

from deployments import advertised, identified_operator


def ev(sensor, value, ts, seq=0, loc=(0.0, 0.0), attr="t"):
    return SimpleEvent(sensor, attr, Location(*loc), value, ts, seq)


SUB = IdentifiedSubscription.from_ranges(
    "s", {"a": ("t", 0, 10), "b": ("t", 20, 30)}, delta_t=5.0
)
OP = identified_operator(SUB, "user")


class TestPaperDefinition:
    def test_valid_match(self):
        e = ComplexEvent([ev("a", 5, 10.0), ev("b", 25, 12.0)])
        assert complex_event_matches(SUB, e)

    def test_completeness_missing_sensor(self):
        assert not complex_event_matches(SUB, ComplexEvent([ev("a", 5, 10.0)]))

    def test_completeness_extra_sensor(self):
        e = ComplexEvent([ev("a", 5, 10.0), ev("b", 25, 10.5), ev("c", 1, 10.6)])
        assert not complex_event_matches(SUB, e)

    def test_value_filter(self):
        e = ComplexEvent([ev("a", 50, 10.0), ev("b", 25, 12.0)])
        assert not complex_event_matches(SUB, e)

    def test_delta_t_strict(self):
        exactly = ComplexEvent([ev("a", 5, 10.0), ev("b", 25, 15.0)])
        assert not complex_event_matches(SUB, exactly)  # |t - t_i| == delta_t
        inside = ComplexEvent([ev("a", 5, 10.1), ev("b", 25, 15.0)])
        assert complex_event_matches(SUB, inside)

    def test_abstract_matching_with_delta_l(self):
        region = RectRegion(Interval(0, 100), Interval(0, 100))
        sub = AbstractSubscription.from_ranges(
            "x", {"t": (0, 10), "u": (0, 10)}, region, 5.0, delta_l=2.0
        )
        near = ComplexEvent(
            [ev("d1", 5, 1.0, loc=(1, 1)), ev("d2", 5, 2.0, loc=(2, 1), attr="u")]
        )
        far = ComplexEvent(
            [ev("d1", 5, 1.0, loc=(1, 1)), ev("d2", 5, 2.0, loc=(50, 1), attr="u")]
        )
        assert complex_event_matches(sub, near)
        assert not complex_event_matches(sub, far)


class TestTriggerAnchoredMatching:
    def test_match_at_trigger_complete_window(self):
        idx = EventIndex([ev("a", 5, 10.0), ev("b", 25, 12.0)])
        found = match_at_trigger(OP, idx, 12.0)
        assert found is not None
        assert [e.sensor_id for e in found["a"]] == ["a"]

    def test_match_at_trigger_incomplete(self):
        idx = EventIndex([ev("a", 5, 10.0)])
        assert match_at_trigger(OP, idx, 10.0) is None

    def test_window_is_half_open(self):
        # b at exactly trigger - delta_t is NOT correlated (strict <).
        idx = EventIndex([ev("a", 5, 5.0), ev("b", 25, 10.0)])
        assert match_at_trigger(OP, idx, 10.0) is None

    def test_matches_involving_returns_participants(self):
        idx = EventIndex([ev("a", 5, 10.0), ev("b", 25, 12.0)])
        new = ev("b", 25, 12.0)
        found = matches_involving(OP, idx, new)
        assert {e.sensor_id for evs in found.values() for e in evs} == {"a", "b"}

    def test_matches_involving_event_out_of_range(self):
        idx = EventIndex([ev("a", 50, 10.0), ev("b", 25, 12.0)])
        assert matches_involving(OP, idx, ev("a", 50, 10.0)) == {}

    def test_matches_involving_late_arrival_of_earlier_event(self):
        # The trigger (max timestamp) is already stored; the earlier
        # event arrives later — matching must still fire.
        idx = EventIndex([ev("b", 25, 12.0), ev("a", 5, 10.0)])
        found = matches_involving(OP, idx, ev("a", 5, 10.0))
        assert found, "reordered delivery must still correlate"

    def test_instance_exists_trigger_must_be_max(self):
        idx = EventIndex([ev("a", 5, 10.0), ev("b", 25, 12.0)])
        assert instance_exists(OP, idx, ev("b", 25, 12.0))
        # 'a' is not the max of any complete window: the only match has
        # max = b@12; an a-anchored window lacks b (b comes later).
        assert not instance_exists(OP, idx, ev("a", 5, 10.0))

    def test_instance_exists_rejects_non_matching_trigger(self):
        idx = EventIndex([ev("a", 50, 10.0), ev("b", 25, 12.0)])
        assert not instance_exists(OP, idx, ev("b", 50, 12.0))

    def test_spatial_combination_search(self):
        region = RectRegion(Interval(0, 100), Interval(0, 100))
        sub = AbstractSubscription.from_ranges(
            "x", {"t": (0, 10), "u": (0, 10)}, region, 5.0, delta_l=2.0
        )
        op = root_operator(sub, "user", advertised({"d1": "t", "d2": "u", "d3": "u"}))
        near = ev("d2", 5, 2.0, loc=(1.5, 1), attr="u")
        far = ev("d3", 5, 2.0, loc=(80, 1), attr="u")
        idx = EventIndex([ev("d1", 5, 1.0, loc=(1, 1)), near, far])
        found = match_at_trigger(op, idx, 2.0)
        assert found is not None
        u_participants = {e.sensor_id for e in found["u"]}
        assert u_participants == {"d2"}, "spatially invalid candidate excluded"

    def test_build_complex_events_one_per_slot(self):
        participants = {
            "a": [ev("a", 5, 10.0), ev("a", 6, 11.0, seq=1)],
            "b": [ev("b", 25, 12.0)],
        }
        complex_event = build_complex_events(participants)
        assert len(complex_event) == 2
        assert complex_event.timestamp == 12.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.floats(-5, 35, allow_nan=False),
            st.floats(0, 40, allow_nan=False),
        ),
        min_size=1,
        max_size=14,
    )
)
def test_instance_oracle_consistent_with_definition(raw):
    """instance_exists agrees with brute-force complex-event enumeration."""
    events = [
        ev(sensor, value, ts, seq=i) for i, (sensor, value, ts) in enumerate(raw)
    ]
    idx = EventIndex(events)
    a_events = [e for e in events if e.sensor_id == "a"]
    b_events = [e for e in events if e.sensor_id == "b"]
    for trigger in events:
        claimed = instance_exists(OP, idx, trigger)
        brute = False
        for ea in a_events:
            for eb in b_events:
                pair = ComplexEvent([ea, eb])
                # "trigger" semantics: the event is a maximum-timestamp
                # member of some valid match (ties allowed).
                if (
                    complex_event_matches(SUB, pair)
                    and trigger.key in {ea.key, eb.key}
                    and pair.timestamp == trigger.timestamp
                ):
                    brute = True
        assert claimed == brute
