"""Tests for the per-node event store U (validity, ordering, dedup)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.matching.timeline import Timeline, append_to
from repro.model import Location, SimpleEvent
from repro.network.eventstore import EventStore


def ev(sensor="d1", ts=0.0, seq=0, value=1.0):
    return SimpleEvent(sensor, "t", Location(0, 0), value, ts, seq)


class TestAdd:
    def test_add_and_contains(self):
        store = EventStore(validity=10.0)
        assert store.add(ev(seq=1), now=0.0)
        assert ("d1", 1) in store and len(store) == 1

    def test_duplicate_rejected(self):
        store = EventStore(validity=10.0)
        assert store.add(ev(seq=1), now=0.0)
        assert not store.add(ev(seq=1), now=0.0)
        assert len(store) == 1

    def test_expired_on_arrival_rejected(self):
        store = EventStore(validity=10.0)
        assert not store.add(ev(ts=0.0), now=20.0)

    def test_validity_positive(self):
        with pytest.raises(ValueError):
            EventStore(validity=0.0)


class TestWindowQueries:
    def test_half_open_window(self):
        store = EventStore(validity=100.0)
        for i, ts in enumerate([1.0, 2.0, 3.0, 4.0]):
            store.add(ev(ts=ts, seq=i), now=ts)
        hits = store.events_for_sensor("d1", after=1.0, until=3.0)
        assert [e.timestamp for e in hits] == [2.0, 3.0]

    def test_unknown_sensor_empty(self):
        store = EventStore(validity=10.0)
        assert store.events_for_sensor("zzz", 0.0, 100.0) == ()

    def test_per_sensor_isolation(self):
        store = EventStore(validity=100.0)
        store.add(ev("a", ts=1.0), now=1.0)
        store.add(ev("b", ts=2.0), now=2.0)
        assert [e.sensor_id for e in store.events_for_sensor("a", 0, 10)] == ["a"]


class TestPruning:
    def test_prune_removes_expired(self):
        store = EventStore(validity=5.0)
        store.add(ev(ts=0.0, seq=0), now=0.0)
        store.add(ev("d2", ts=8.0, seq=1), now=8.0)
        removed = store.prune(now=10.0)
        assert removed == [("d1", 0)]
        assert len(store) == 1

    def test_insert_prunes_lazily(self):
        store = EventStore(validity=5.0)
        store.add(ev(ts=0.0, seq=0), now=0.0)
        store.add(ev(ts=100.0, seq=1), now=100.0)
        assert ("d1", 0) not in store

    def test_prune_empty_store(self):
        store = EventStore(validity=5.0)
        assert store.prune(now=100.0) == []


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.floats(0, 50, allow_nan=False)),
        max_size=20,
    )
)
def test_window_query_matches_bruteforce(raw):
    store = EventStore(validity=1000.0)
    events = []
    for i, (sensor, ts) in enumerate(raw):
        e = ev(sensor, ts=ts, seq=i)
        events.append(e)
        store.add(e, now=ts)
    for after, until in [(0.0, 25.0), (10.0, 10.0), (-5.0, 60.0)]:
        got = {e.key for e in store.events_for_sensor("a", after, until)}
        want = {
            e.key
            for e in events
            if e.sensor_id == "a" and after < e.timestamp <= until
        }
        assert got == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30))
def test_store_never_holds_expired_events_after_prune(stamps):
    store = EventStore(validity=10.0)
    now = 0.0
    events = [ev(ts=ts, seq=i) for i, ts in enumerate(sorted(stamps))]
    for event in events:
        now = max(now, event.timestamp)
        store.add(event, now=now)
    store.prune(now)
    for event in events:
        assert (event.key in store) == (now - event.timestamp <= 10.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.just("append"),
                st.integers(0, 12),  # timestamp halves: ties guaranteed
                st.integers(0, 3),  # seq: equal timestamps order by it
                st.sampled_from(["a", "b"]),
                st.lists(st.booleans(), min_size=3, max_size=3),
            ),
            st.tuples(st.just("drop_until"), st.integers(-1, 12)),
            st.tuples(st.just("drop_sensor"), st.sampled_from(["a", "b"])),
        ),
        max_size=30,
    )
)
def test_timelines_keep_their_invariants(ops):
    """``append_to`` (several timelines at once) and ``Timeline.add``
    against a plain sorted list: a timeline not marked unsorted is
    sorted, ``entries()`` sorts it, and ``min_timestamp`` /
    ``max_timestamp`` are its extremes (±inf when empty)."""
    timelines = [Timeline() for _ in range(3)]
    models = [[] for _ in timelines]
    seen = set()
    for op in ops:
        if op[0] == "append":
            _, half, seq, sensor, into = op
            event = ev(sensor, ts=half * 0.5, seq=seq)
            entry = (event.timestamp, event.seq, event.sensor_id, event)
            if event.key in seen:
                continue  # the store never stores a key twice
            seen.add(event.key)
            chosen = [tl for tl, take in zip(timelines, into) if take]
            append_to(chosen[1:], entry)
            if chosen:
                chosen[0].add(event)
            for model, take in zip(models, into):
                if take:
                    model.append(entry)
        else:
            for timeline, model in zip(timelines, models):
                if op[0] == "drop_until":
                    timeline.drop_until(op[1] * 0.5)
                    model[:] = [e for e in model if e[0] > op[1] * 0.5]
                else:
                    timeline.drop_sensor(op[1])
                    model[:] = [e for e in model if e[2] != op[1]]
        for timeline, model in zip(timelines, models):
            stamps = [e[0] for e in model]
            assert timeline.min_timestamp == min(stamps, default=float("inf"))
            assert timeline.max_timestamp == max(stamps, default=float("-inf"))
            if not timeline._dirty:
                assert timeline._entries == sorted(timeline._entries)
    for timeline, model in zip(timelines, models):
        assert timeline.entries() == sorted(model)
