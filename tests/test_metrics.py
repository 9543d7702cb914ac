"""Tests for oracle, recall and reporting."""

import math
from dataclasses import replace

import pytest

from repro.matching.engine import match_structure
from repro.metrics import (
    EventIndex,
    Fences,
    RecallReport,
    compute_truth,
    improvement_over,
    measure_recall,
    render_series_table,
)
from repro.model import IdentifiedSubscription, Location, SimpleEvent
from repro.model.matching import instance_exists
from repro.network.delivery import DeliveryLog
from repro.network.faults import FaultPlan, LinkFault
from repro.network.reliability import ReliabilityConfig
from repro.network.topology import build_deployment
from repro.workload.program import ProgramQuery, WorkloadProgram, execute_program
from repro.workload.sensorscope import ReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig

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


def recall_loop(truths, delivery) -> RecallReport:
    """Every subscription's delivered instances rebuilt on their own by
    the reference scan: what ``measure_recall`` computes without clones
    sharing a count or the replay matcher, kept as its oracle."""
    true_instances = delivered_instances = delivered_events = false_positives = 0
    for sub_id, truth in truths.items():
        delivered = delivery.delivered(sub_id)
        view = EventIndex(delivered.values())
        delivered_events += len(delivered)
        false_positives += sum(key not in truth.participants for key in delivered)
        true_instances += len(truth.triggers)
        delivered_instances += sum(
            key in delivered
            and instance_exists(truth.operator, view, delivered[key])
            for key in truth.triggers
        )
    return RecallReport(
        true_instances, delivered_instances, delivered_events, false_positives
    )


class TestCloneRecall:
    """Clones share one count only when structure, trigger set and
    delivered set all agree."""

    EVENTS = [
        ev("a", 5, 10.0),
        ev("b", 5, 12.0),
        ev("a", 5, 20.0, seq=1),
        ev("b", 5, 21.0, seq=1),
    ]

    @pytest.mark.parametrize(
        "late_birth, clone_gets",
        [
            # same delivered set, the clone born late has one trigger less
            (15.0, EVENTS),
            # same triggers, the clone misses every 'a'
            (None, [e for e in EVENTS if e.sensor_id == "b"]),
        ],
        ids=["trigger_sets_differ", "delivered_sets_differ"],
    )
    def test_clone_counted_on_its_own(self, line, late_birth, clone_gets):
        subs = [sub("s", {"a": (0, 10), "b": (0, 10)}), sub("t", {"a": (0, 10), "b": (0, 10)})]
        lifetimes = {} if late_birth is None else {"t": (late_birth, math.inf)}
        truths = compute_truth(subs, line, self.EVENTS, fences=Fences(lifetimes=lifetimes))
        log = DeliveryLog()
        log.record_events("s", self.EVENTS)
        log.record_events("t", clone_gets)
        report = measure_recall(truths, log)
        assert report == recall_loop(truths, log)
        assert report.delivered_instances < 4

    def test_equal_clones_counted_twice(self, line):
        subs = [sub(sub_id, {"a": (0, 10), "b": (0, 10)}) for sub_id in "stu"]
        truths = compute_truth(subs, line, self.EVENTS)
        log = DeliveryLog()
        for sub_id in "stu":
            log.record_events(sub_id, self.EVENTS)
        report = measure_recall(truths, log)
        assert report == recall_loop(truths, log)
        assert report.delivered_instances == report.true_instances == 6


def clone_program(faults=None) -> WorkloadProgram:
    """Smoke-size ``shared_templates``: six generated templates, three
    more clones of each at other user nodes.  With ``faults``, control
    traffic is acked and retransmitted; readings are not."""
    deployment = build_deployment(24, 3, seed=0)
    base = WorkloadProgram(
        subscriptions=SubscriptionWorkloadConfig(
            n_subscriptions=6, attrs_min=3, attrs_max=5
        ),
        replay=ReplayConfig(rounds=5),
        faults=faults,
        reliability=None if faults is None else ReliabilityConfig(),
    )
    users = deployment.user_nodes
    clones = tuple(
        ProgramQuery(
            IdentifiedSubscription(
                f"t{t}c{c}", item.subscription.filters, item.subscription.delta_t
            ),
            at=users[(t + c) % len(users)],
        )
        for c in range(1, 4)
        for t, item in enumerate(base.source(deployment).workload)
    )
    return replace(base, queries=clones).compile(deployment)


@pytest.mark.parametrize(
    "faults, approach",
    [
        (None, "naive"),
        (None, "fsf"),
        (FaultPlan(default=LinkFault(drop=0.1), seed=3), "naive"),
    ],
    ids=["naive", "fsf", "naive_10pct_loss"],
)
def test_clone_program_recall_equals_the_loop(faults, approach):
    compiled = clone_program(faults)
    truths = compiled.truth()
    delivery = execute_program(compiled, approach).session.network.delivery
    report = measure_recall(truths, delivery)
    assert report == recall_loop(truths, delivery)
    assert report.delivered_instances > 0
    if faults is not None:
        # Loss must make some clones' deliveries differ, or this case
        # tests nothing the fault-free ones do not.
        by_question = {}
        for sub_id, truth in truths.items():
            key = (match_structure(truth.operator), frozenset(truth.triggers))
            by_question.setdefault(key, set()).add(
                frozenset(delivery.delivered(sub_id))
            )
        assert any(len(sets) > 1 for sets in by_question.values())


class TestDeliveryLog:
    def test_idempotent_recording(self):
        log = DeliveryLog()
        e = ev("a", 5, 1.0)
        log.record_events("s", [e])
        log.record_events("s", [e])
        assert log.delivered_count("s") == 1

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
