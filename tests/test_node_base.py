"""Tests for the shared node machinery: flooding, storage, splitting."""

import pytest

from repro.core import filter_split_forward_approach
from repro.model import IdentifiedSubscription, Location, SimpleEvent
from repro.network.messages import EventMessage
from repro.network.network import Network
from repro.network.node import LOCAL, Node
from repro.protocols.registry import all_approaches

from deployments import fork_deployment, line_deployment, make_network, publish


def sub(sub_id, ranges, delta_t=5.0):
    return IdentifiedSubscription.from_ranges(
        sub_id, {k: ("t", lo, hi) for k, (lo, hi) in ranges.items()}, delta_t
    )


class TestAdvertisementFlooding:
    def test_every_node_knows_every_sensor(self, line):
        net = make_network(line, filter_split_forward_approach())
        for node in net.nodes.values():
            for sensor in ("a", "b", "c"):
                assert sensor in node.ads.known_ids

    def test_next_hops_point_toward_sensor(self, line):
        net = make_network(line, filter_split_forward_approach())
        assert net.nodes["u2"].ads.partition_by_origin("a") == {"u1": ["a"]}
        assert net.nodes["hub"].ads.partition_by_origin("a") == {"s_a": ["a"]}
        assert net.nodes["s_a"].ads.partition_by_origin("ac") == {
            LOCAL: ["a"],
            "s_b": ["c"],
        }

    def test_flood_units_counted(self, line):
        net = make_network(line, filter_split_forward_approach())
        # 3 advertisements x 5 links, each crossing each link once.
        assert net.meter.advertisement_units == 15


class TestSubscriptionPlumbing:
    def test_absent_source_dropped(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s", {"zzz": (0, 1)}))
        net.run_to_quiescence()
        assert net.dropped_subscriptions == ["s"]
        assert net.meter.subscription_units == 0

    def test_local_subscription_stored_whole(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        node = net.nodes["u2"]
        assert len(node.local_subscriptions) == 1
        stored = node.stores[LOCAL].uncovered
        assert [op.op_id for op in stored] == ["s[a,b]"]

    def test_split_happens_at_divergence(self, fork):
        net = make_network(fork, filter_split_forward_approach())
        net.register_subscription("u1", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        mid = net.nodes["mid"]
        assert [op.op_id for op in mid.stores["u1"].uncovered] == ["s[a,b]"]
        assert [op.op_id for op in net.nodes["s_a"].stores["mid"].uncovered] == ["s[a]"]
        assert [op.op_id for op in net.nodes["s_b"].stores["mid"].uncovered] == ["s[b]"]

    def test_chain_sheds_slots_progressively(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription(
            "u2", sub("s", {"a": (0, 10), "b": (0, 10), "c": (0, 10)})
        )
        net.run_to_quiescence()
        assert [op.op_id for op in net.nodes["hub"].stores["u1"].uncovered] == [
            "s[a,b,c]"
        ]
        assert [op.op_id for op in net.nodes["s_a"].stores["hub"].uncovered] == [
            "s[a,b,c]"
        ]
        assert [op.op_id for op in net.nodes["s_b"].stores["s_a"].uncovered] == [
            "s[b,c]"
        ]
        assert [op.op_id for op in net.nodes["s_c"].stores["s_b"].uncovered] == [
            "s[c]"
        ]

    def test_subscription_units_count_links(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10)}))
        net.run_to_quiescence()
        # u2->u1->hub->s_a : three links.
        assert net.meter.subscription_units == 3


class TestEventPlumbing:
    def test_duplicate_event_ignored(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0, seq=0)
        net.run_to_quiescence()
        units = net.meter.event_units
        publish(net, "a", 5.0, ts=net.sim.now + 1.0, seq=0)  # same key
        net.run_to_quiescence()
        assert net.meter.event_units == units

    def test_simple_operator_forwards_matching_only(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "a", 5.0, ts=100.0, seq=0)
        publish(net, "a", 50.0, ts=200.0, seq=1)
        net.run_to_quiescence()
        # Only the matching reading travels the three links.
        assert net.meter.event_units == 3
        delivered = net.delivery.delivered("s")
        assert {k for k in delivered} == {("a", 0)}

    def test_unrequested_sensor_never_forwarded(self, line):
        net = make_network(line, filter_split_forward_approach())
        net.register_subscription("u2", sub("s", {"a": (0, 10)}))
        net.run_to_quiescence()
        publish(net, "c", 5.0, ts=100.0)
        net.run_to_quiescence()
        assert net.meter.event_units == 0

    @pytest.mark.parametrize("approach", sorted(all_approaches()))
    def test_forwarded_to_flags_leave_with_their_events(self, line, approach):
        """A replay several validities long, then one prune past the
        last reading: no node keeps a ``sendTo`` flag of an event its
        store has dropped — whether the periodic sweep dropped it or
        the insert of a later reading of the same sensor did."""
        net = make_network(line, all_approaches()[approach])
        net.register_subscription("u2", sub("s", {"a": (0, 10), "b": (0, 10)}))
        net.run_to_quiescence()
        for i in range(40):
            publish(net, "ab"[i % 2], 5.0, ts=100.0 + 2.5 * i, seq=i)
        net.run_to_quiescence()
        assert net.sim.now - 100.0 > 3 * net.validity
        assert any(node._sent for node in net.nodes.values())
        # One documented shape per lane (see Node._reset_volatile).
        for node in net.nodes.values():
            for marks in node._sent.values():
                if approach in ("naive", "operator_placement"):
                    # stream lane: {link: {op id, ...}}
                    assert set(marks) <= set(node.neighbors)
                    assert all(ops <= {"s[a,b]", "s[b]"} for ops in marks.values())
                elif approach == "centralized":
                    assert marks == {"s[a,b]"}  # the centre's result sets
                else:
                    assert marks <= set(node.neighbors)  # pub/sub: links served
        net.sim.at(
            net.sim.now + 2 * net.validity,
            lambda: [node.prune_expired() for node in net.nodes.values()],
        )
        net.run_to_quiescence()
        for node in net.nodes.values():
            assert len(node.store) == 0
            assert node._sent == {}, node.node_id


class TestPlainSendPath:
    """Sends to one arrival instant share an agenda entry for as long
    as nothing else is scheduled in between — the condition under which
    one flush delivers in the order one agenda entry per send would."""

    @staticmethod
    def recording_network(deployment, latency):
        log = []

        class Recorder(Node):
            def receive(self, message, origin):
                log.append((self.node_id, message.event.seq))

        network = Network(deployment, latency=latency)
        network.populate(Recorder)
        return network, log

    @staticmethod
    def message(seq):
        return EventMessage(SimpleEvent("a", "t", Location(0.0, 0.0), 1.0, 0.0, seq))

    def test_back_to_back_sends_share_one_agenda_entry(self, line):
        net, log = self.recording_network(line, latency=0.05)
        net.send("u1", "u2", self.message(0))
        net.send("u1", "hub", self.message(1))
        assert net.sim.pending == 1
        net.run_to_quiescence()
        assert log == [("u2", 0), ("hub", 1)]

    def test_an_action_scheduled_between_two_sends_runs_between_them(self, line):
        net, log = self.recording_network(line, latency=0.05)
        net.send("u1", "u2", self.message(0))
        net.sim.schedule(net.latency, lambda: log.append("action"))
        net.send("u1", "u2", self.message(1))
        assert net.sim.pending == 3
        net.run_to_quiescence()
        assert log == [("u2", 0), "action", ("u2", 1)]

    def test_zero_latency_send_after_the_flush_fired_is_delivered(self, line):
        net, log = self.recording_network(line, latency=0.0)
        net.sim.at(1.0, lambda: net.send("u1", "u2", self.message(0)))
        # Priority 1 sorts behind the first send's flush at t=1 although
        # it was scheduled before it: same instant, sequence unchanged.
        net.sim.at(1.0, lambda: net.send("u1", "u2", self.message(1)), priority=1)
        net.run_to_quiescence()
        assert log == [("u2", 0), ("u2", 1)]
