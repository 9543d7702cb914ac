"""Behavioural tests for Filter-Split-Forward (Algorithms 2-5)."""

from dataclasses import replace

import pytest

from repro.core import FSFConfig, filter_split_forward_approach
from repro.experiments.runner import run_program
from repro.experiments.tables import run_fig3_walkthrough, table_i_subscriptions
from repro.model import IdentifiedSubscription
from repro.network.node import LOCAL
from repro.workload.scenarios import PLACEMENT
from repro.workload.sensorscope import DynamicReplayConfig

from deployments import line_deployment, make_network, publish


def sub(sub_id, ranges, delta_t=5.0):
    return IdentifiedSubscription.from_ranges(
        sub_id, {k: ("t", lo, hi) for k, (lo, hi) in ranges.items()}, delta_t
    )


class TestFiltering:
    def test_identical_subscription_covered(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s1", {"a": (0, 10)}))
        net.run_to_quiescence()
        units = net.meter.subscription_units
        net.register_subscription("u2", sub("s2", {"a": (0, 10)}))
        net.run_to_quiescence()
        assert net.meter.subscription_units == units, "duplicate adds no traffic"
        store = net.nodes["u2"].stores[LOCAL]
        assert [op.subscription_id for op in store.covered] == ["s2"]

    def test_union_coverage_beyond_pairwise(self, line):
        """Two halves jointly cover — single-operator check cannot."""
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("l", {"a": (0, 6)}))
        net.register_subscription("u2", sub("r", {"a": (5, 10)}))
        net.run_to_quiescence()
        units = net.meter.subscription_units
        net.register_subscription("u2", sub("m", {"a": (2, 8)}))
        net.run_to_quiescence()
        assert net.meter.subscription_units == units

    def test_cross_attribute_set_subsumption_table_i(self, line):
        """The Table I scenario on the line network: s3 forwards nothing."""
        net = make_network(line, filter_split_forward_approach())
        for s in table_i_subscriptions():
            net.register_subscription("u2", s)
            net.run_to_quiescence()
        store = net.nodes["u2"].stores[LOCAL]
        assert [op.subscription_id for op in store.covered] == ["s3"]
        # s1 travels 4 links (to s_b), s2 travels 5 links... compute:
        # s1{a,b}: u2->u1->hub->s_a (3 whole) + s_a->s_b (piece) = 4
        # s2{b,c}: u2->u1->hub->s_a (3 whole) + s_a->s_b + s_b->s_c = 5
        assert net.meter.subscription_units == 9

    def test_gap_means_not_covered(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("l", {"a": (0, 4)}))
        net.register_subscription("u2", sub("r", {"a": (6, 10)}))
        net.run_to_quiescence()
        units = net.meter.subscription_units
        net.register_subscription("u2", sub("m", {"a": (2, 8)}))  # gap (4,6)
        net.run_to_quiescence()
        assert net.meter.subscription_units > units

    def test_a_record_with_an_extra_slot_does_not_cover(self, line):
        """A record over {a, b, c} forwards an a/b pair only with a c
        partner within delta_t, so it cannot stand in for {a, b}."""
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription(
            "u2", sub("abc", {"a": (0, 10), "b": (0, 10), "c": (0, 10)})
        )
        net.run_to_quiescence()
        net.register_subscription("u2", sub("ab", {"a": (2, 8), "b": (2, 8)}))
        net.run_to_quiescence()
        assert net.nodes["u2"].stores[LOCAL].covered == []
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=101.0)
        net.run_to_quiescence()
        assert {k[0] for k in net.delivery.delivered("ab")} == {"a", "b"}
        assert net.delivery.delivered("abc") == {}

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 19: the per-slot product covers a box the "
        "union of the stored boxes does not",
    )
    def test_diagonal_boxes_do_not_cover_their_hull(self, line):
        """{a, b} in [0, 1]^2 and in [1, 2]^2 hold every a and every b
        range of [0, 2]^2, but not the pair (0.5, 1.5): neither stored
        operator matches it, so a cover by their product never sees it."""
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("low", {"a": (0, 1), "b": (0, 1)}))
        net.register_subscription("u2", sub("high", {"a": (1, 2), "b": (1, 2)}))
        net.run_to_quiescence()
        net.register_subscription("u2", sub("hull", {"a": (0, 2), "b": (0, 2)}))
        net.run_to_quiescence()
        publish(net, "a", 0.5, ts=100.0)
        publish(net, "b", 1.5, ts=101.0)
        net.run_to_quiescence()
        assert net.delivery.complex_deliveries["hull"] >= 1

    def test_filtering_is_per_origin(self, line):
        """Subscriptions from different origins are not compared (S_m)."""
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s1", {"a": (0, 10)}))
        net.run_to_quiescence()
        # Same subscription from u1: at u1 the copies come from
        # different origins (u2 vs LOCAL), so both are forwarded.
        units = net.meter.subscription_units
        net.register_subscription("u1", sub("s2", {"a": (0, 10)}))
        net.run_to_quiescence()
        # s2 is forwarded u1->hub (different origin than s1 at u1), but
        # at hub both copies share the origin u1, so s2 is covered there
        # and travels no further: exactly one extra unit.
        assert net.meter.subscription_units == units + 1
        hub = net.nodes["hub"]
        assert [op.subscription_id for op in hub.stores["u1"].covered] == ["s2"]


class TestEventPath:
    def test_correlated_pair_delivered_once_per_link(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=101.0)
        net.run_to_quiescence()
        delivered = net.delivery.delivered("s")
        assert {k[0] for k in delivered} == {"a", "b"}
        # a: s_a->hub->u1->u2 (3) ; b: s_b->s_a->hub->u1->u2 (4)
        assert net.meter.event_units == 7

    def test_uncorrelated_events_do_not_travel(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=200.0)  # outside delta_t
        net.run_to_quiescence()
        assert net.delivery.delivered("s") == {}
        # 'b' crosses s_b->s_a once (its simple-operator fragment always
        # forwards matching values); the correlation check at s_a then
        # fails, so nothing travels the remaining three links.
        assert net.meter.event_units == 1

    def test_shared_link_carries_event_once(self, line):
        """Two overlapping subscriptions share the event stream."""
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s1", {"a": (0, 10)}))
        net.register_subscription("u2", sub("s2", {"a": (0, 20)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        net.run_to_quiescence()
        assert net.delivery.delivered_count("s1") == 1
        assert net.delivery.delivered_count("s2") == 1
        assert net.meter.event_units == 3  # once per link, not per sub

    def test_covered_subscription_regenerates_at_coverage_node(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("l", {"a": (0, 6)}))
        net.register_subscription("u2", sub("r", {"a": (5, 10)}))
        net.register_subscription("u2", sub("m", {"a": (2, 8)}))  # covered
        net.run_to_quiescence()
        publish(net, "a", 5.5, ts=100.0)
        net.run_to_quiescence()
        for sub_id in ("l", "r", "m"):
            assert net.delivery.delivered_count(sub_id) == 1, sub_id

    def test_complex_delivery_counter(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=101.0)
        net.run_to_quiescence()
        assert net.delivery.complex_deliveries["s"] >= 1


class TestFig3:
    def test_walkthrough_matches_paper(self):
        w = run_fig3_walkthrough()
        assert w.covered["n6"] == ["s3[a,b,c]"]
        # s3 forwards nothing: total = s1 (4 links) + s2 (4 links).
        assert w.subscription_units == 8
        for node in ("n1", "n2", "n3", "n4", "n5"):
            assert all("s3" not in op for op in w.stored[node])
            assert all("s3" not in op for op in w.covered[node])


class TestCoarsening:
    def test_coarsening_widens_forwarded_operators(self, line):
        net = make_network(
            line,
            filter_split_forward_approach(
                FSFConfig(coarsening=2.0)
            ),
        )
        net.register_subscription("u2", sub("s", {"a": (0, 10)}))
        net.run_to_quiescence()
        stored = net.nodes["s_a"].stores["hub"].uncovered[0]
        (slot_a,) = (s for s in stored.slots if s.slot_id == "a")
        assert (slot_a.interval.lo, slot_a.interval.hi) == (-2.0, 12.0)

    def test_user_matching_stays_exact_under_coarsening(self, line):
        net = make_network(
            line,
            filter_split_forward_approach(
                FSFConfig(coarsening=5.0)
            ),
        )
        net.register_subscription("u2", sub("s", {"a": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 12.0, ts=100.0)  # matches widened, not original
        net.run_to_quiescence()
        assert net.meter.event_units > 0, "coarsened filter forwards it"
        assert net.delivery.delivered_count("s") == 0, "user filter drops it"


def test_placement_point_delivers_every_instance():
    """``PLACEMENT``'s first 100 queries, static, over a two-day replay
    without churn: 114 true instances, each one delivered (a record with
    an extra slot never covers)."""
    scenario = replace(
        PLACEMENT,
        dynamic=DynamicReplayConfig(days=2, rounds_per_day=18, day_seconds=240.0),
    )
    compiled = scenario.program(100).compile(scenario.deployment())
    result = run_program(filter_split_forward_approach(), compiled)
    assert (result.accuracy.true_instances, result.accuracy.recall) == (114, 1.0)
