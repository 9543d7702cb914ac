"""Behavioural tests for the four comparison systems."""

import pytest

from repro.baselines import (
    centralized_approach,
    multijoin_approach,
    naive_approach,
    operator_placement_approach,
)
from repro.baselines.multijoin import JOIN, LEAF, SPLIT, TRANSIT
from repro.model import IdentifiedSubscription
from repro.network.node import LOCAL

from deployments import fork_deployment, line_deployment, make_network, publish


def sub(sub_id, ranges, delta_t=5.0):
    return IdentifiedSubscription.from_ranges(
        sub_id, {k: ("t", lo, hi) for k, (lo, hi) in ranges.items()}, delta_t
    )


# ---------------------------------------------------------------------------
# Naive
# ---------------------------------------------------------------------------
class TestNaive:
    def test_no_filtering(self, line):
        net = make_network(line, naive_approach())
        net.register_subscription("u2", sub("s1", {"a": (0, 10)}))
        net.run_to_quiescence()
        units = net.meter.subscription_units
        net.register_subscription("u2", sub("s2", {"a": (0, 10)}))  # identical
        net.run_to_quiescence()
        assert net.meter.subscription_units == 2 * units

    def test_result_sets_duplicated_per_subscription(self, line):
        net = make_network(line, naive_approach())
        net.register_subscription("u2", sub("s1", {"a": (0, 10)}))
        net.register_subscription("u2", sub("s2", {"a": (0, 20)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        net.run_to_quiescence()
        # The same event pays once per overlapping stream per link:
        # 2 streams x 3 links.
        assert net.meter.event_units == 6
        assert net.delivery.delivered_count("s1") == 1
        assert net.delivery.delivered_count("s2") == 1

    def test_correlation_still_enforced(self, line):
        net = make_network(line, naive_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=300.0)  # uncorrelated
        net.run_to_quiescence()
        assert net.delivery.delivered("s") == {}


# ---------------------------------------------------------------------------
# Distributed operator placement
# ---------------------------------------------------------------------------
class TestOperatorPlacement:
    def test_pairwise_coverage_stops_forwarding(self, line):
        net = make_network(line, operator_placement_approach())
        net.register_subscription("u2", sub("wide", {"a": (0, 20)}))
        net.run_to_quiescence()
        units = net.meter.subscription_units
        net.register_subscription("u2", sub("narrow", {"a": (5, 10)}))
        net.run_to_quiescence()
        assert net.meter.subscription_units == units
        assert [op.subscription_id for op in net.nodes["u2"].stores[LOCAL].covered] == [
            "narrow"
        ]

    def test_union_coverage_not_detected(self, line):
        """Pairwise filtering cannot use two operators jointly."""
        net = make_network(line, operator_placement_approach())
        net.register_subscription("u2", sub("l", {"a": (0, 6)}))
        net.register_subscription("u2", sub("r", {"a": (5, 10)}))
        net.run_to_quiescence()
        units = net.meter.subscription_units
        net.register_subscription("u2", sub("m", {"a": (2, 8)}))
        net.run_to_quiescence()
        assert net.meter.subscription_units > units

    def test_covered_stream_regenerated_at_coverage_node(self, line):
        net = make_network(line, operator_placement_approach())
        net.register_subscription("u2", sub("wide", {"a": (0, 20)}))
        net.register_subscription("u2", sub("narrow", {"a": (5, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 7.0, ts=100.0)
        net.run_to_quiescence()
        assert net.delivery.delivered_count("wide") == 1
        assert net.delivery.delivered_count("narrow") == 1
        # wide's stream: 3 links; narrow was covered at u2 itself, so its
        # stream is regenerated only at the user's node: 0 extra links.
        assert net.meter.event_units == 3

    def test_stream_duplication_when_both_travel(self, line):
        net = make_network(line, operator_placement_approach())
        net.register_subscription("u2", sub("s1", {"a": (0, 10)}))
        net.register_subscription("u2", sub("s2", {"a": (2, 20)}))  # not covered
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        net.run_to_quiescence()
        assert net.meter.event_units == 6  # 2 streams x 3 links


# ---------------------------------------------------------------------------
# Distributed multi-join
# ---------------------------------------------------------------------------
class TestMultiJoin:
    def test_roles_on_the_line(self, line):
        net = make_network(line, multijoin_approach())
        net.register_subscription(
            "u2", sub("s", {"a": (0, 10), "b": (0, 10), "c": (0, 10)})
        )
        net.run_to_quiescence()
        # u2/u1/hub hold the whole multi-join in transit; s_a is the
        # first divergence (local sensor + onward paths) and splits.
        assert net.nodes["u1"].roles["s[a,b,c]"] == TRANSIT
        s_a = net.nodes["s_a"]
        assert s_a.roles["s[a,b,c]"] == SPLIT
        join_roles = [r for r in s_a.roles.values() if r == JOIN]
        assert len(join_roles) == 3  # ring of three binary joins
        # Below the divergence only simple filters travel.
        assert all(
            r.operator.is_simple for r in net.nodes["s_b"].stores["s_a"].records()
        )

    def test_subscription_load_higher_than_simple_splitting(self, line):
        mj = make_network(line, multijoin_approach())
        op_net = make_network(line_deployment(), operator_placement_approach())
        s = sub("s", {"a": (0, 10), "b": (0, 10), "c": (0, 10)})
        for net in (mj, op_net):
            net.register_subscription("u2", s)
            net.run_to_quiescence()
        assert (
            mj.meter.subscription_units > op_net.meter.subscription_units
        ), "binary joins dispatch more filters from the divergence node"

    def test_false_positive_delivered(self, line):
        """Pairwise sanctioning forwards events with no full match.

        a1@100 pairs with b@104 (|dt| < 5) so every binary join on its
        path sanctions it — but the only full match is {a2@103, b@104,
        c@107}; a1 takes part in no complete window, yet it is hauled
        all the way to the user (the paper's false-positive traffic).
        """
        net = make_network(line, multijoin_approach())
        net.register_subscription(
            "u2", sub("s", {"a": (0, 10), "b": (0, 10), "c": (0, 10)})
        )
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0, seq=0)  # the false positive
        publish(net, "a", 5.0, ts=103.0, seq=1)
        publish(net, "b", 5.0, ts=104.0)
        publish(net, "c", 5.0, ts=107.0)
        net.run_to_quiescence()
        delivered = net.delivery.delivered("s")
        assert ("a", 1) in delivered and ("b", 0) in delivered
        assert ("c", 0) in delivered
        assert ("a", 0) in delivered, "false positive reaches the user"

    def test_broken_ring_false_positive_decays_in_transit(self, line):
        """An event whose sanctioning partner cannot travel is dropped
        at the first transit re-check instead of reaching the user."""
        net = make_network(line, multijoin_approach())
        net.register_subscription(
            "u2", sub("s", {"a": (0, 10), "b": (0, 10), "c": (0, 10)})
        )
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=101.0)  # c absent: b never sanctioned
        net.run_to_quiescence()
        delivered = net.delivery.delivered("s")
        assert delivered == {}
        # a was sanctioned at the divergence node and crossed at least
        # one link before decaying.
        assert net.meter.event_units >= 2

    def test_true_match_fully_delivered(self, line):
        net = make_network(line, multijoin_approach())
        net.register_subscription(
            "u2", sub("s", {"a": (0, 10), "b": (0, 10), "c": (0, 10)})
        )
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=101.0)
        publish(net, "c", 5.0, ts=102.0)
        net.run_to_quiescence()
        delivered = net.delivery.delivered("s")
        assert {k[0] for k in delivered} == {"a", "b", "c"}

    def test_two_attribute_join_is_exact(self, line):
        net = make_network(line, multijoin_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 50.0, ts=101.0)  # b out of range
        net.run_to_quiescence()
        assert net.delivery.delivered("s") == {}

    def test_shared_raw_streams_deduplicated(self, line):
        net = make_network(line, multijoin_approach())
        net.register_subscription("u2", sub("s1", {"a": (0, 10), "b": (0, 10)}))
        net.register_subscription("u2", sub("s2", {"a": (0, 12), "b": (0, 12)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=101.0)
        net.run_to_quiescence()
        # Per-link dedup: each event crosses each link at most once.
        for link, count in net.meter.per_link_events.items():
            assert count <= 2, (link, count)

    def test_covered_whole_multijoin_relays_once_its_cover_is_cancelled(self, line):
        """Whole multi-joins hold no matcher, covered or not: uncovering
        one touches no stream group, gives it its role and relays."""
        net = make_network(line, multijoin_approach())
        net.register_subscription(
            "u2", sub("wide", {"a": (0, 20), "b": (0, 20), "c": (0, 20)})
        )
        net.run_to_quiescence()
        net.register_subscription(
            "u1", sub("s", {"a": (0, 10), "b": (0, 10), "c": (0, 10)})
        )
        net.run_to_quiescence()
        hub = net.nodes["hub"]
        (record,) = [
            r for r in hub.stores["u1"].records() if r.operator.subscription_id == "s"
        ]
        assert record.covered and record.matcher is None
        assert "s[a,b,c]" not in hub.roles
        assert "s[a,b,c]" not in net.nodes["s_a"].roles  # never got past the hub
        net.cancel_subscription("u2", "wide")
        net.run_to_quiescence()
        assert not record.covered and record.matcher is None
        assert hub.stores["u1"].streams == {}
        assert hub.roles["s[a,b,c]"] == TRANSIT
        assert net.nodes["s_a"].roles["s[a,b,c]"] == SPLIT
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=101.0)
        publish(net, "c", 5.0, ts=102.0)
        net.run_to_quiescence()
        assert {k[0] for k in net.delivery.delivered("s")} == {"a", "b", "c"}

    def test_covered_binary_join_joins_once_its_cover_is_cancelled(self, line):
        """A binary join covered at its divergence node keeps the
        matcher it retained at ``add``; when the cover goes it becomes
        JOIN and forwards its main events from that matcher's hits."""
        net = make_network(line, multijoin_approach())
        # Not a cover of ``s`` as a whole (c is narrower), but its
        # (a|b) binary join covers the (a|b) join of ``s``.
        net.register_subscription(
            "u2", sub("w", {"a": (0, 20), "b": (0, 20), "c": (0, 5)})
        )
        net.register_subscription(
            "u2", sub("s", {"a": (0, 10), "b": (0, 10), "c": (0, 10)})
        )
        net.run_to_quiescence()
        s_a = net.nodes["s_a"]
        assert s_a.roles["s[a,b,c]"] == SPLIT
        (record,) = [
            r
            for r in s_a.stores["hub"].records()
            if r.operator.subscription_id == "s" and r.operator.main_slot == "a"
        ]
        matcher = record.matcher
        assert record.covered and matcher is not None
        assert record.operator.op_id not in s_a.roles
        net.cancel_subscription("u2", "w")
        net.run_to_quiescence()
        assert not record.covered and record.matcher is matcher
        assert s_a.roles[record.operator.op_id] == JOIN
        assert record.operator.op_id in s_a.stores["hub"].streams[matcher].every
        # Only the restored join has ``a`` as its main stream now.
        publish(net, "a", 8.0, ts=100.0)
        publish(net, "b", 8.0, ts=101.0)
        publish(net, "c", 8.0, ts=102.0)
        net.run_to_quiescence()
        assert {k[0] for k in net.delivery.delivered("s")} == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# Centralized
# ---------------------------------------------------------------------------
class TestCentralized:
    def test_no_advertisement_traffic(self, line):
        net = make_network(line, centralized_approach())
        assert net.meter.advertisement_units == 0

    def test_subscription_unicast_to_center(self, line):
        net = make_network(line, centralized_approach())
        center = net.center
        net.register_subscription("u2", sub("s", {"a": (0, 10)}))
        net.run_to_quiescence()
        assert net.meter.subscription_units == net.routing.distance("u2", center)
        assert len(net.nodes[center].stores[LOCAL].uncovered) == 1

    def test_every_event_hauled_to_center(self, line):
        net = make_network(line, centralized_approach())
        center = net.center
        publish(net, "c", 999.0, ts=100.0)  # matches nothing, still pays
        net.run_to_quiescence()
        assert net.meter.event_units == net.routing.distance("s_c", center)

    def test_matching_and_result_delivery(self, line):
        net = make_network(line, centralized_approach())
        center = net.center
        net.register_subscription("u2", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        base = net.meter.event_units
        publish(net, "a", 5.0, ts=100.0)
        publish(net, "b", 5.0, ts=101.0)
        net.run_to_quiescence()
        delivered = net.delivery.delivered("s")
        assert {k[0] for k in delivered} == {"a", "b"}
        raw_cost = net.routing.distance("s_a", center) + net.routing.distance(
            "s_b", center
        )
        result_cost = 2 * net.routing.distance(center, "u2")
        assert net.meter.event_units - base == raw_cost + result_cost

    def test_per_subscription_result_sets(self, line):
        net = make_network(line, centralized_approach())
        net.register_subscription("u2", sub("s1", {"a": (0, 10)}))
        net.register_subscription("u2", sub("s2", {"a": (0, 20)}))
        net.run_to_quiescence()
        base = net.meter.event_units
        publish(net, "a", 5.0, ts=100.0)
        net.run_to_quiescence()
        center = net.center
        per_result = net.routing.distance(center, "u2")
        raw = net.routing.distance("s_a", center)
        assert net.meter.event_units - base == raw + 2 * per_result

    def test_absent_source_dropped(self, line):
        net = make_network(line, centralized_approach())
        net.register_subscription("u2", sub("s", {"zzz": (0, 1)}))
        net.run_to_quiescence()
        assert net.dropped_subscriptions == ["s"]

    def test_recall_is_perfect(self, line):
        net = make_network(line, centralized_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 1.0, ts=100.0)
        publish(net, "b", 2.0, ts=101.0)
        publish(net, "a", 3.0, ts=103.0, seq=1)
        net.run_to_quiescence()
        assert net.delivery.delivered_count("s") == 3
