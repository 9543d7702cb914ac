"""Tests for oracle, recall and reporting."""

import pytest

from repro.metrics import (
    EventIndex,
    compute_truth,
    improvement_over,
    measure_recall,
    per_subscription_recall,
    render_series_table,
)
from repro.model import IdentifiedSubscription, Location, SimpleEvent
from repro.network.delivery import DeliveryLog

from deployments import line_deployment


def ev(sensor, value, ts, seq=0):
    return SimpleEvent(sensor, "t", Location(0, 0), value, ts, seq)


def sub(sub_id, ranges, delta_t=5.0):
    return IdentifiedSubscription.from_ranges(
        sub_id, {k: ("t", lo, hi) for k, (lo, hi) in ranges.items()}, delta_t
    )


class TestOracle:
    def test_counts_trigger_instances(self, line):
        s = sub("s", {"a": (0, 10), "b": (0, 10)})
        events = [ev("a", 5, 10.0), ev("b", 5, 12.0), ev("b", 5, 30.0, seq=1)]
        truths = compute_truth([s], line, events)
        truth = truths["s"]
        # Only b@12 is the max of a complete window (b@30 has no 'a').
        assert truth.triggers == {("b", 0)}
        assert truth.participants == {("a", 0), ("b", 0)}

    def test_multiple_instances(self, line):
        s = sub("s", {"a": (0, 10), "b": (0, 10)})
        events = [
            ev("a", 5, 10.0),
            ev("b", 5, 11.0),
            ev("a", 5, 12.0, seq=1),
        ]
        truths = compute_truth([s], line, events)
        # b@11 (max over {a@10,b@11}) and a@12 (max over {a@12,b@11}).
        assert truths["s"].triggers == {("b", 0), ("a", 1)}

    def test_out_of_range_events_ignored(self, line):
        s = sub("s", {"a": (0, 10)})
        truths = compute_truth([s], line, [ev("a", 99, 10.0)])
        assert truths["s"].triggers == set()


class TestRecall:
    def _truth_and_log(self, line):
        s = sub("s", {"a": (0, 10), "b": (0, 10)})
        events = [ev("a", 5, 10.0), ev("b", 5, 12.0)]
        truths = compute_truth([s], line, events)
        log = DeliveryLog()
        log.register("s")
        return s, events, truths, log

    def test_full_delivery_recall_one(self, line):
        s, events, truths, log = self._truth_and_log(line)
        log.record_events("s", events)
        report = measure_recall(truths, log)
        assert report.recall == 1.0
        assert report.false_positive_events == 0

    def test_missing_member_loses_instance(self, line):
        s, events, truths, log = self._truth_and_log(line)
        log.record_events("s", [events[1]])  # only 'b'
        report = measure_recall(truths, log)
        assert report.recall == 0.0
        assert report.delivered_instances == 0

    def test_no_instances_is_vacuous_success(self, line):
        s = sub("s", {"a": (0, 10)})
        truths = compute_truth([s], line, [])
        log = DeliveryLog()
        log.register("s")
        assert measure_recall(truths, log).recall == 1.0

    def test_false_positive_counting(self, line):
        s, events, truths, log = self._truth_and_log(line)
        junk = ev("a", 5, 500.0, seq=9)  # matches filter, no instance
        log.record_events("s", events + [junk])
        report = measure_recall(truths, log)
        assert report.false_positive_events == 1
        assert 0 < report.false_positive_rate < 1

    def test_per_subscription_breakdown(self, line):
        s1 = sub("s1", {"a": (0, 10), "b": (0, 10)})
        s2 = sub("s2", {"a": (0, 10)})
        events = [ev("a", 5, 10.0), ev("b", 5, 12.0)]
        truths = compute_truth([s1, s2], line, events)
        log = DeliveryLog()
        log.record_events("s1", events)
        # s2 receives nothing although a@10 matches it.
        breakdown = per_subscription_recall(truths, log)
        assert breakdown == {"s1": 1.0, "s2": 0.0}


class TestDeliveryLog:
    def test_idempotent_recording(self):
        log = DeliveryLog()
        e = ev("a", 5, 1.0)
        log.record_events("s", [e])
        log.record_events("s", [e])
        assert log.delivered_count("s") == 1

    def test_view_is_matching_provider(self):
        log = DeliveryLog()
        log.record_events("s", [ev("a", 5, 1.0), ev("a", 6, 3.0, seq=1)])
        view = log.view("s")
        hits = view.events_for_sensor("a", 0.0, 2.0)
        assert [e.timestamp for e in hits] == [1.0]

    def test_subscriptions_listing(self):
        log = DeliveryLog()
        log.register("s1")
        log.record_events("s2", [ev("a", 5, 1.0)])
        assert log.subscriptions() == ["s1", "s2"]


class TestEventIndex:
    def test_window_query(self):
        idx = EventIndex([ev("a", 1, 1.0), ev("a", 2, 2.0, seq=1)])
        assert [e.value for e in idx.events_for_sensor("a", 1.0, 2.0)] == [2]
        assert idx.events_for_sensor("zzz", 0, 10) == ()

    def test_events_of(self):
        idx = EventIndex([ev("a", 1, 1.0), ev("b", 2, 2.0)])
        assert len(idx.events_of(["a", "b"])) == 2


class TestReporting:
    def test_render_series_table(self):
        text = render_series_table(
            "T", "x", [1, 2], {"alpha": [10.0, 20.0], "beta": [1.0, 2.0]}
        )
        assert "T" in text and "alpha" in text and "20" in text

    def test_improvement_over(self):
        imps = improvement_over([50, 75], [100, 100])
        assert imps == [50.0, 25.0]
        assert improvement_over([1], [0]) == [0.0]
