"""Property-based cross-approach invariants on randomized workloads.

For randomly drawn subscription sets and event values on a fixed small
overlay, the guarantees of Section VI must hold regardless of the draw:

* the deterministic approaches (naive, operator placement, multi-join,
  centralized) deliver every oracle participant — recall 1.0;
* FSF never delivers anything naive would not (it only *removes*
  redundancy, never invents results);
* per-link dedup: no approach with publish/subscribe forwarding sends
  one event twice over one link;
* exact-filtering FSF never exceeds operator placement's subscription
  load (set subsumption subsumes pair-wise coverage);
* with coverage restricted to one covering record (union coverage out
  of the picture), exact FSF delivers exactly naive's keys: a record
  with a slot the covered operator lacks never covers it.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.baselines import (
    multijoin_approach,
    naive_approach,
    operator_placement_approach,
)
from repro.core import FSFConfig, filter_split_forward_approach
from repro.core.filter_split_forward import FilterSplitForwardNode
from repro.experiments.runner import REPLAY_START
from repro.metrics.oracle import compute_truth
from repro.metrics.recall import measure_recall
from repro.model import IdentifiedSubscription

from deployments import line_deployment, make_network, publish


def sub_strategy():
    rng = st.tuples(st.floats(0, 10, allow_nan=False), st.floats(0, 10, allow_nan=False))
    sensors = st.sets(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3)

    def build(args):
        idx, sensor_set, ranges = args
        chosen = sorted(sensor_set)
        return IdentifiedSubscription.from_ranges(
            f"q{idx}",
            {
                s: ("t", min(r), max(r))
                for s, r in zip(chosen, ranges)
            },
            delta_t=5.0,
        )

    return st.tuples(
        st.integers(0, 10_000), sensors, st.lists(rng, min_size=3, max_size=3)
    ).map(build)


def event_strategy():
    return st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(0, 12, allow_nan=False),
            st.floats(0, 30, allow_nan=False),
        ),
        min_size=1,
        max_size=10,
    )


def run(approach, subs, raw_events):
    net = make_network(line_deployment(), approach)
    for i, s in enumerate(subs):
        net.register_subscription("u2", s)
    net.run_to_quiescence()
    t0 = net.sim.now + 10.0
    events = []
    for i, (sensor, value, dt) in enumerate(raw_events):
        events.append(publish(net, sensor, value, ts=t0 + dt, seq=i))
    net.run_to_quiescence()
    return net, events


common = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@common
@given(st.lists(sub_strategy(), min_size=1, max_size=4, unique_by=lambda s: s.sub_id),
       event_strategy())
def test_deterministic_approaches_full_recall(subs, raw_events):
    for approach in (naive_approach(), operator_placement_approach(), multijoin_approach()):
        net, events = run(approach, subs, raw_events)
        truths = compute_truth(subs, net.deployment, list(events))
        report = measure_recall(truths, net.delivery)
        assert report.recall == 1.0, approach.key


@common
@given(st.lists(sub_strategy(), min_size=1, max_size=4, unique_by=lambda s: s.sub_id),
       event_strategy())
def test_fsf_delivers_subset_of_naive(subs, raw_events):
    fsf_net, _ = run(
        filter_split_forward_approach(FSFConfig(exact_filtering=True)),
        subs,
        raw_events,
    )
    naive_net, _ = run(naive_approach(), subs, raw_events)
    for s in subs:
        fsf_keys = set(fsf_net.delivery.delivered(s.sub_id))
        naive_keys = set(naive_net.delivery.delivered(s.sub_id))
        assert fsf_keys <= naive_keys, s.sub_id


@common
@given(st.lists(sub_strategy(), min_size=1, max_size=5, unique_by=lambda s: s.sub_id),
       event_strategy())
def test_pubsub_never_repeats_an_event_on_a_link(subs, raw_events):
    for approach in (
        filter_split_forward_approach(FSFConfig(exact_filtering=True)),
        multijoin_approach(),
    ):
        net, events = run(approach, subs, raw_events)
        n_events = len({e.key for e in events})
        for link, count in net.meter.per_link_events.items():
            assert count <= n_events, (approach.key, link, count)


@common
@given(st.lists(sub_strategy(), min_size=1, max_size=5, unique_by=lambda s: s.sub_id))
def test_exact_fsf_subscription_load_at_most_operator_placement(subs):
    fsf_net, _ = run(
        filter_split_forward_approach(FSFConfig(exact_filtering=True)), subs, []
    )
    op_net, _ = run(operator_placement_approach(), subs, [])
    assert (
        fsf_net.meter.subscription_units <= op_net.meter.subscription_units
    )


@common
@given(st.lists(sub_strategy(), min_size=1, max_size=4, unique_by=lambda s: s.sub_id),
       event_strategy())
def test_fsf_event_load_at_most_naive(subs, raw_events):
    fsf_net, _ = run(
        filter_split_forward_approach(FSFConfig(exact_filtering=True)),
        subs,
        raw_events,
    )
    naive_net, _ = run(naive_approach(), subs, raw_events)
    assert fsf_net.meter.event_units <= naive_net.meter.event_units


class _OneRecord:
    """A store view whose coverage candidates all come from one record."""

    def __init__(self, store, record):
        self.store, self.record = store, record

    def candidates(self, slot, before):
        return [
            (record, other)
            for record, other in self.store.candidates(slot, before)
            if record is self.record
        ]


_union_cover = FilterSplitForwardNode.is_covered


def _single_cover(self, operator, store, before=None):
    """FSF's rule, asked of one stored record at a time."""
    records = {
        id(record): record
        for slot in operator.slots
        for record, _ in store.candidates(slot, before)
    }
    return any(
        _union_cover(self, operator, _OneRecord(store, record), before)
        for record in records.values()
    )


@common
@given(st.lists(sub_strategy(), min_size=1, max_size=4, unique_by=lambda s: s.sub_id),
       event_strategy())
@example(
    subs=[
        IdentifiedSubscription.from_ranges(
            "q0", {s: ("t", 0.0, 10.0) for s in "abc"}, delta_t=5.0
        ),
        IdentifiedSubscription.from_ranges(
            "q1", {s: ("t", 2.0, 8.0) for s in "ab"}, delta_t=5.0
        ),
    ],
    raw_events=[("a", 5.0, 0.0), ("b", 5.0, 1.0)],
)
def test_single_cover_fsf_delivers_exactly_naive(subs, raw_events):
    with mock.patch.object(FilterSplitForwardNode, "is_covered", _single_cover):
        fsf_net, _ = run(
            filter_split_forward_approach(FSFConfig(exact_filtering=True)),
            subs,
            raw_events,
        )
    naive_net, _ = run(naive_approach(), subs, raw_events)
    for s in subs:
        assert set(fsf_net.delivery.delivered(s.sub_id)) == set(
            naive_net.delivery.delivered(s.sub_id)
        ), s.sub_id
