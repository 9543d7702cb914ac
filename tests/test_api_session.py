"""The live query-session facade: builder, session, handles, shims.

``repro.api`` is *the* public way to use the system; these tests pin

* the fluent :class:`Query` builder's compilation to model objects
  (identified vs abstract classification, validation errors);
* :class:`Session` push-based ingestion and explicit time control,
  including bit-identical equivalence with a hand-driven network;
* :class:`QueryHandle` results (structured matches), stats and
  cancellation semantics;
* the deprecation shims kept for the old entry points.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro import (
    IdentifiedSubscription,
    Query,
    QueryError,
    Session,
    SimpleEvent,
)
from repro.model import AbstractSubscription, Interval, Location, bounding_rect
from repro.model.locations import CircleRegion, RectRegion
from repro.network.network import Network
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.sim import Simulator
from repro.sketches import SketchConfig


def small_session(approach="fsf", seed=11, **kwargs):
    return Session.create(approach=approach, nodes=24, groups=3, seed=seed, **kwargs)


def pair_of_sensors(session, group=0):
    sensors = session.deployment.sensors_of_group(group)
    ambient = next(s for s in sensors if s.attribute.name == "ambient_temperature")
    surface = next(s for s in sensors if s.attribute.name == "surface_temperature")
    return ambient, surface


def freeze_query(session):
    ambient, surface = pair_of_sensors(session)
    return (
        Query()
        .named("freeze-watch")
        .where(ambient.sensor_id, -5.0, 5.0)
        .where(surface.sensor_id, -10.0, 10.0)
        .within(5.0)
    )


class TestQueryBuilder:
    def test_identified_compilation(self):
        session = small_session()
        ambient, surface = pair_of_sensors(session)
        sub = freeze_query(session).build(session.deployment)
        assert isinstance(sub, IdentifiedSubscription)
        assert sub.sub_id == "freeze-watch"
        assert sub.sensor_ids == {ambient.sensor_id, surface.sensor_id}
        assert sub.delta_t == 5.0
        by_sensor = {f.sensor_id: f for f in sub.filters}
        assert by_sensor[ambient.sensor_id].attribute == "ambient_temperature"
        assert by_sensor[surface.sensor_id].interval.lo == -10.0

    def test_abstract_compilation_with_near_location(self):
        session = small_session()
        center = session.deployment.sensors[0].location
        sub = (
            Query()
            .named("storm")
            .where("wind_speed", 12.0, 40.0)
            .where("relative_humidity", 85.0, 100.0)
            .within(4.0)
            .near(center, delta_l=200.0)
        ).build(session.deployment)
        assert isinstance(sub, AbstractSubscription)
        assert sub.attributes == {"wind_speed", "relative_humidity"}
        assert sub.delta_l == 200.0
        assert {c.region for c in sub.clauses} == {CircleRegion(center, 200.0)}

    def test_abstract_with_explicit_region_and_default_region(self):
        session = small_session()
        region = RectRegion(Interval(-30.0, 30.0), Interval(-30.0, 30.0))
        sub = (
            Query().named("r").where("wind_speed", 0.0, 50.0).near(region, 10.0)
        ).build(session.deployment)
        assert sub.clauses[0].region is region and sub.delta_l == 10.0
        # Without near(), the region spans the whole deployment.
        sub2 = (Query().named("u").where("wind_speed", 0.0, 50.0)).build(
            session.deployment
        )
        assert math.isinf(sub2.delta_l)
        assert all(
            sub2.clauses[0].region.contains(p.location)
            for p in session.deployment.sensors
        )

    def test_builder_is_immutable(self):
        base = Query().within(7.0)
        extended = base.where("wind_speed", 0.0, 1.0)
        assert base.clauses == () and len(extended.clauses) == 1

    def test_builder_validation(self):
        session = small_session()
        ambient, _ = pair_of_sensors(session)
        with pytest.raises(QueryError, match="empty range"):
            Query().where("wind_speed", 5.0, 1.0)
        with pytest.raises(QueryError, match="duplicate clause"):
            Query().where("wind_speed", 0.0, 1.0).where("wind_speed", 2.0, 3.0)
        with pytest.raises(QueryError, match="at least one"):
            Query().named("empty").build(session.deployment)
        with pytest.raises(QueryError, match="unknown targets"):
            Query().named("x").where("no_such_thing", 0.0, 1.0).build(
                session.deployment
            )
        with pytest.raises(QueryError, match="cannot mix"):
            (
                Query()
                .named("mix")
                .where(ambient.sensor_id, 0.0, 1.0)
                .where("wind_speed", 0.0, 1.0)
            ).build(session.deployment)
        with pytest.raises(QueryError, match="abstract"):
            (
                Query()
                .named("spatial-identified")
                .where(ambient.sensor_id, 0.0, 1.0)
                .near(Location(0.0, 0.0), 5.0)
            ).build(session.deployment)
        with pytest.raises(QueryError, match="finite delta_l"):
            Query().near(Location(0.0, 0.0))
        with pytest.raises(QueryError, match="no name"):
            Query().where("wind_speed", 0.0, 1.0).build(session.deployment)


class TestSession:
    def test_create_resolves_every_approach(self):
        for key in all_approaches():
            session = Session.create(approach=key, nodes=18, groups=2, seed=3)
            assert session.approach.key == key
            assert len(session.network.nodes) == 18
        with pytest.raises(ValueError, match="unknown approach"):
            Session.create(approach="nope")

    def test_create_takes_no_matcher_choice(self):
        """The node matcher is not a knob anywhere: every node runs
        the incremental engine, and tests check it against the
        reference as a shadow (``tests/conftest.py``)."""
        with pytest.raises(TypeError, match="matching"):
            Session.create(matching="reference")

    def test_ingest_builds_and_publishes(self):
        session = small_session()
        ambient, _ = pair_of_sensors(session)
        event = session.ingest(ambient.sensor_id, 1.25)
        assert event.attribute == "ambient_temperature"
        assert event.location == ambient.location
        assert event.timestamp == session.now
        assert event.seq == 0
        assert session.ingest(ambient.sensor_id, 2.0).seq == 1
        with pytest.raises(KeyError):
            session.ingest("ghost", 0.0)

    def test_future_ingest_rides_the_agenda(self):
        session = small_session()
        handle = session.submit(freeze_query(session), at="r2")
        ambient, surface = pair_of_sensors(session)
        t0 = session.now + 50.0
        session.ingest(ambient.sensor_id, 0.0, timestamp=t0)
        session.ingest(surface.sensor_id, 0.0, timestamp=t0 + 1.0)
        # Nothing happens until time passes.
        assert handle.stats().delivered_events == 0
        session.advance(10.0)
        assert handle.stats().delivered_events == 0
        session.drain()
        assert handle.stats().delivered_events == 2
        assert handle.stats().complex_deliveries >= 1

    def test_time_control_validation(self):
        session = small_session()
        with pytest.raises(ValueError):
            session.advance(-1.0)
        with pytest.raises(ValueError):
            session.run_until(session.now - 1.0)
        for bad in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="dt must be finite"):
                session.advance(bad)
            with pytest.raises(ValueError, match="t must be finite"):
                session.run_until(bad)
        before = session.now
        assert session.advance(3.5) == pytest.approx(before + 3.5)
        assert session.run_until(session.now + 1.0) == pytest.approx(before + 4.5)

    @staticmethod
    def validities(session):
        network = session.network
        return [network.validity] + [n.store.validity for n in network.nodes.values()]

    def test_nan_bound_is_refused_and_validity_kept(self):
        session = Session.create(approach="naive", seed=0)
        ambient, _ = pair_of_sensors(session)
        before = self.validities(session)
        with pytest.raises(QueryError, match="lo must be a number"):
            session.submit(Query().where(ambient.sensor_id, math.nan, 30.0))
        assert self.validities(session) == before
        assert all(math.isfinite(v) for v in before)

    def test_infinite_window_is_refused_and_validity_kept(self):
        session = Session.create(approach="naive", seed=0)
        ambient, _ = pair_of_sensors(session)
        before = self.validities(session)
        with pytest.raises(QueryError, match="delta_t must be positive and finite"):
            session.submit(Query().where(ambient.sensor_id, 0.0, 30.0).within(math.inf))
        assert self.validities(session) == before
        assert all(math.isfinite(v) for v in before)

    def test_facade_matches_hand_driven_network(self):
        """Session-driven runs are bit-identical to the manual protocol."""
        seed = 7
        deployment = build_deployment(24, 3, seed=seed)
        # Manual run: the pre-facade way.
        manual = Network(deployment, Simulator(seed=seed))
        all_approaches()["fsf"].populate(manual)
        manual.attach_all_sensors()
        manual.run_to_quiescence()
        sensors = deployment.sensors_of_group(1)[:3]
        sub = IdentifiedSubscription.from_ranges(
            "q",
            {s.sensor_id: (s.attribute.name, -1e6, 1e6) for s in sensors},
            delta_t=5.0,
        )
        manual.register_subscription("r1", sub)
        manual.run_to_quiescence()
        t0 = manual.sim.now + 20.0
        for i, s in enumerate(sensors):
            event = SimpleEvent(
                s.sensor_id, s.attribute.name, s.location, 1.0, t0 + 0.5 * i, 0
            )
            manual.sim.at(
                event.timestamp, lambda e=event, p=s: manual.publish(p.node_id, e)
            )
        manual.run_to_quiescence()

        # Facade run on an equal deployment.
        session = Session.create(approach="fsf", nodes=24, groups=3, seed=seed)
        handle = session.submit(sub, at="r1")
        t0 = session.now + 20.0
        for i, s in enumerate(sensors):
            session.ingest(s.sensor_id, 1.0, timestamp=t0 + 0.5 * i)
        session.drain()

        assert session.traffic.snapshot() == manual.meter.snapshot()
        assert set(session.delivery.delivered("q")) == set(manual.delivery.delivered("q"))
        assert handle.stats().delivered_events == len(manual.delivery.delivered("q"))

    def test_submit_rejects_duplicate_live_ids(self):
        session = small_session()
        session.submit(freeze_query(session))
        with pytest.raises(QueryError, match="already live"):
            session.submit(freeze_query(session))

    def test_submit_unknown_node(self):
        session = small_session()
        with pytest.raises(KeyError):
            session.submit(freeze_query(session), at="nowhere")

    def test_failed_resubmit_leaves_old_incarnation_intact(self):
        """Validation failures must not wipe the previous incarnation."""
        session = small_session()
        ambient, surface = pair_of_sensors(session)
        handle = session.submit(freeze_query(session), at="r2")
        session.ingest(ambient.sensor_id, 1.0, timestamp=session.now + 5.0)
        session.ingest(surface.sensor_id, -1.0, timestamp=session.now + 6.0)
        session.drain()
        handle.cancel()
        fence = dict(session.cancellations)
        with pytest.raises(KeyError):
            session.submit(freeze_query(session), at="bogus-node")
        assert session.cancellations == fence
        assert handle.stats().delivered_events == 2
        assert len(handle.matches()) == 1

    @pytest.mark.parametrize(
        "lane",
        [
            {"sketch": SketchConfig()},
            {"approach": "centralized"},
            {"approach": "multijoin"},
        ],
        ids=[
            "sketches",
            "centralized-no-approach",
            "multijoin-no-approach",
        ],
    )
    def test_refused_plan_leaves_old_incarnation_intact(self, lane):
        """The plan x sketches / plan x node-class refusals fire before
        anything is written, like every other
        validation failure.  The node-class cases wrap a pre-built
        network without naming its approach: the refusal is the node
        class's, not the session's."""
        session = small_session(**lane)
        if "approach" in lane:
            session = Session(session.network, session.deployment)
        ambient, surface = pair_of_sensors(session)
        handle = session.submit(freeze_query(session), at="r2")
        session.ingest(ambient.sensor_id, 1.0, timestamp=session.now + 5.0)
        session.ingest(surface.sensor_id, -1.0, timestamp=session.now + 6.0)
        session.drain()
        handle.cancel()

        def state():
            return (
                handle.events(),
                dict(session.cancellations),
                dict(session.activations),
                dict(session.handles),
            )

        before = state()
        assert len(before[0]) == 2
        with pytest.raises(ValueError, match="placement plans"):
            session.submit(freeze_query(session), at="r2", plan=object())
        assert state() == before

    def test_auto_ids_skip_named_collisions(self):
        session = small_session()
        ambient, _ = pair_of_sensors(session)
        base = Query().where(ambient.sensor_id, -5.0, 5.0).within(5.0)
        session.submit(base.named("q00001"))
        first = session.submit(base)   # auto: q00000
        second = session.submit(base)  # auto must skip live q00001
        assert first.sub_id == "q00000"
        assert second.sub_id == "q00002"

    def test_settled_units_not_billed_for_pending_floods(self):
        """A settled submit after a settle=False one drains the pending
        flood first, so each handle's units are its own registration's."""
        seed = 13
        reference = small_session(seed=seed)
        expected_a = reference.submit(
            freeze_query(reference), at="r2"
        ).stats().registration_units

        session = small_session(seed=seed)
        a = session.submit(freeze_query(session), at="r2", settle=False)
        # b targets another group so a's flood can never cover it.
        other, _ = pair_of_sensors(session, group=1)
        b_query = Query().named("b").where(other.sensor_id, -5.0, 5.0).within(5.0)
        b = session.submit(b_query, at="r2")
        assert a.stats().registration_units == 0  # unsettled: unattributable
        assert b.stats().registration_units > 0
        # b's units exclude a's flood entirely.
        solo = small_session(seed=seed)
        solo.submit(b_query, at="r2")
        assert (
            b.stats().registration_units
            == solo.handles["b"].stats().registration_units
        )
        assert expected_a > 0  # sanity: a's flood did cost something

    def test_auto_naming_and_active_queries(self):
        session = small_session()
        ambient, surface = pair_of_sensors(session)
        q = Query().where(ambient.sensor_id, -5.0, 5.0).within(5.0)
        h1, h2 = session.submit(q), session.submit(q)
        assert h1.sub_id != h2.sub_id
        assert session.active_queries() == sorted([h1.sub_id, h2.sub_id])
        h1.cancel()
        assert session.active_queries() == [h2.sub_id]


class TestQueryHandle:
    def test_structured_matches(self):
        session = small_session()
        handle = session.submit(freeze_query(session), at="r2")
        ambient, surface = pair_of_sensors(session)
        t0 = session.now + 100.0
        e1 = session.ingest(ambient.sensor_id, 1.5, timestamp=t0)
        e2 = session.ingest(surface.sensor_id, -3.0, timestamp=t0 + 1.5)
        session.drain()
        matches = session.handles["freeze-watch"].matches()
        assert len(matches) == 1
        (match,) = matches
        assert match.sub_id == "freeze-watch"
        assert match.trigger == e2
        assert match.timestamp == e2.timestamp
        assert match.events == (e1, e2)
        assert handle.events() == [e1, e2]

    def test_match_records_exclude_disjoint_combinations(self):
        """A ComplexMatch only lists members of combinations containing
        its trigger: a spatially disjoint cluster sharing the window is
        a different instance, not extra members."""
        session = Session.create(approach="fsf", nodes=30, groups=4, seed=3)
        clusters = [
            session.deployment.sensors_of_group(1),
            session.deployment.sensors_of_group(3),
        ]
        handle = session.submit(
            Query()
            .named("pairs")
            .where("wind_speed", 0.0, 100.0)
            .where("relative_humidity", 0.0, 100.0)
            .within(10.0)
            .near(
                bounding_rect(
                    (p.location for p in session.deployment.sensors), margin=1.0
                ),
                delta_l=5.0,  # within a group, never across groups
            )
        )
        t0 = session.now + 20.0
        by_cluster = []
        for i, cluster in enumerate(clusters):
            wind = next(p for p in cluster if p.attribute.name == "wind_speed")
            humid = next(
                p for p in cluster if p.attribute.name == "relative_humidity"
            )
            by_cluster.append(
                {
                    session.ingest(
                        wind.sensor_id, 10.0, timestamp=t0 + 0.1 * i
                    ).key,
                    session.ingest(
                        humid.sensor_id, 50.0, timestamp=t0 + 1.0 + 0.1 * i
                    ).key,
                }
            )
        session.drain()
        matches = handle.matches()
        assert len(matches) == 2  # one instance per cluster
        for match in matches:
            keys = {e.key for e in match.events}
            assert keys in by_cluster, (keys, by_cluster)
            assert match.trigger.key in keys

    def test_out_of_range_reading_matches_nothing(self):
        session = small_session()
        handle = session.submit(freeze_query(session), at="r2")
        ambient, _ = pair_of_sensors(session)
        session.ingest(ambient.sensor_id, -25.0, timestamp=session.now + 10.0)
        session.drain()
        assert handle.matches() == []
        assert handle.stats().delivered_events == 0

    def test_dropped_query_handle(self):
        """Absent sources: the handle reports the drop, cancel is a no-op."""
        session = small_session()
        sub = IdentifiedSubscription.from_ranges(
            "ghost", {"never-deployed": ("t", 0.0, 1.0)}, delta_t=5.0
        )
        handle = session.submit(sub)
        assert not handle.accepted and not handle.active
        assert handle.cancel() is False
        assert handle.stats().registration_units == 0

    def test_cancel_lifecycle(self):
        session = small_session()
        handle = session.submit(freeze_query(session), at="r2")
        assert handle.active and handle.stats().registration_units > 0
        assert handle.cancel() is True
        assert not handle.active
        assert handle.cancelled_at is not None
        assert handle.stats().cancellation_units > 0
        assert handle.cancel() is False  # idempotent
        # Resubmitting under the same id is allowed once cancelled.
        again = session.submit(freeze_query(session), at="r2")
        assert again.active

    def test_resubmitted_id_is_a_fresh_incarnation(self):
        """Reusing a cancelled id must not inherit fence or history."""
        session = small_session()
        ambient, surface = pair_of_sensors(session)
        first = session.submit(freeze_query(session), at="r2")
        old_pair = [
            session.ingest(ambient.sensor_id, 1.0, timestamp=session.now + 5.0),
            session.ingest(surface.sensor_id, -1.0, timestamp=session.now + 6.0),
        ]
        session.drain()
        assert len(first.matches()) == 1
        first.cancel()
        second = session.submit(freeze_query(session), at="r2")
        pair = [
            session.ingest(ambient.sensor_id, 2.0, timestamp=session.now + 5.0),
            session.ingest(surface.sensor_id, -2.0, timestamp=session.now + 6.0),
        ]
        session.drain()
        # Only the new incarnation's deliveries are visible...
        matches = second.matches()
        assert len(matches) == 1
        assert matches[0].events == tuple(pair)
        assert second.stats().delivered_events == 2
        # ...and the oracle's truth is fenced to the new incarnation's
        # lifetime: the first pair's instance belongs to the cancelled
        # incarnation, not to the resubmitted query.
        truth = session.truth(old_pair + pair)["freeze-watch"]
        assert truth.n_instances == 1
        assert truth.participants == {e.key for e in pair}

    def test_resubmit_backfill_is_truth_not_false_positive(self):
        """A fresh incarnation may correlate with still-valid earlier
        events (matcher backfill) — the oracle must count those members
        so recall is 1.0 with zero false positives, not penalised."""
        from repro.metrics.recall import measure_recall

        session = small_session()
        ambient, surface = pair_of_sensors(session)
        first = session.submit(freeze_query(session), at="r2")
        e1 = session.ingest(ambient.sensor_id, 1.0, timestamp=session.now + 5.0)
        session.drain()
        first.cancel()
        second = session.submit(freeze_query(session), at="r2")
        # Within delta_t of the pre-resubmit event: the new incarnation
        # legitimately completes the pair from the stored history.
        e2 = session.ingest(
            surface.sensor_id, -1.0, timestamp=e1.timestamp + 2.0
        )
        session.drain()
        assert second.stats().delivered_events == 2
        (match,) = second.matches()
        assert match.events == (e1, e2)
        truths = session.truth([e1, e2])
        assert truths["freeze-watch"].n_instances == 1
        report = measure_recall(truths, session.delivery)
        assert report.recall == 1.0
        assert report.false_positive_rate == 0.0

    def test_truth_fences_cancelled_queries(self):
        session = small_session()
        handle = session.submit(freeze_query(session), at="r2")
        ambient, surface = pair_of_sensors(session)
        t0 = session.now + 10.0
        events = [
            session.ingest(ambient.sensor_id, 0.0, timestamp=t0),
            session.ingest(surface.sensor_id, 0.0, timestamp=t0 + 1.0),
        ]
        session.drain()
        handle.cancel()
        # Post-cancel readings: real events, but no truth for the query.
        late = [
            session.ingest(ambient.sensor_id, 0.0, timestamp=session.now + 5.0),
            session.ingest(surface.sensor_id, 0.0, timestamp=session.now + 6.0),
        ]
        session.drain()
        truths = session.truth(events + late)
        truth = truths["freeze-watch"]
        assert truth.n_instances == 1  # the pre-cancel instance only
        assert all(key in {e.key for e in events} for key in truth.participants)
        assert handle.stats().delivered_events == 2  # nothing post-cancel

    def test_stats_frozen_at_cancel(self):
        """The satellite contract: a retired query's accounting freezes
        at the cancellation instant — result streams still in flight
        (or a later incarnation reusing the id) never accrue to it.
        The delivered *history* views stay live."""
        session = small_session()
        handle = session.submit(freeze_query(session), at="r2")
        ambient, surface = pair_of_sensors(session)
        t0 = session.now + 10.0
        e1 = session.ingest(ambient.sensor_id, 1.0, timestamp=t0)
        e2 = session.ingest(surface.sensor_id, -1.0, timestamp=t0 + 1.0)
        session.drain()
        assert handle.cancel()
        frozen = handle.stats()
        assert frozen.delivered_events == 2 and frozen.matches == 1
        assert not frozen.active and frozen.cancellation_units > 0
        # A straggler landing in the log after the teardown (the
        # cancel-while-matching race) must not change the stats...
        straggler = SimpleEvent(
            ambient.sensor_id,
            ambient.attribute.name,
            ambient.location,
            2.0,
            timestamp=session.now + 1.0,
            seq=999,
        )
        session.delivery.record_events("freeze-watch", [straggler])
        session.delivery.record_complex("freeze-watch")
        assert handle.stats() == frozen
        # ...while the history views keep reading the live log.
        assert straggler in handle.events()
        assert handle.events()[:2] == [e1, e2]

    def test_stats_frozen_under_unsettled_cancel(self):
        """cancel(settle=False) freezes at the issue instant: matches
        still in flight at the teardown are not accounted."""
        session = small_session()
        handle = session.submit(freeze_query(session), at="r2")
        ambient, surface = pair_of_sensors(session)
        session.ingest(ambient.sensor_id, 1.0)
        session.ingest(surface.sensor_id, -1.0)
        # Nothing delivered yet (the events are mid-flight); cancel now.
        assert handle.cancel(settle=False)
        frozen = handle.stats()
        assert frozen.delivered_events == 0
        session.drain()
        assert handle.stats() == frozen

    def test_stats_live_while_active(self):
        session = small_session()
        handle = session.submit(freeze_query(session), at="r2")
        ambient, surface = pair_of_sensors(session)
        assert handle.stats().delivered_events == 0
        session.ingest(ambient.sensor_id, 1.0)
        session.ingest(surface.sensor_id, -1.0)
        session.drain()
        assert handle.stats().delivered_events == 2


class TestReentrancy:
    """Programmatic driving surfaced the gap: submitting (or
    cancelling) from inside a delivery callback or mid-``drain`` used
    to die with an opaque ``SimulationError: run() is not reentrant``
    somewhere inside the settle.  Now: ``settle=True`` raises a clear
    :class:`QueryError` up front, ``settle=False`` works."""

    def test_submit_mid_drain_with_settle_raises_query_error(self):
        session = small_session()
        query = freeze_query(session)
        errors: list[Exception] = []

        def mid_drain_submit():
            with pytest.raises(QueryError, match="settle=False"):
                session.submit(query)
            errors.append(True)  # reached: the guard fired cleanly

        session.network.sim.at(session.now + 1.0, mid_drain_submit)
        session.drain()
        assert errors
        assert "freeze-watch" not in session.handles

    def test_cancel_mid_drain_with_settle_raises_query_error(self):
        session = small_session()
        handle = session.submit(freeze_query(session))

        def mid_drain_cancel():
            with pytest.raises(QueryError, match="settle=False"):
                handle.cancel()

        session.network.sim.at(session.now + 1.0, mid_drain_cancel)
        session.drain()
        assert handle.active  # the guarded cancel never went through

    def test_submit_mid_drain_with_settle_false_works(self):
        """An unsettled mid-drain submit registers, floods, and the
        query then delivers like any other."""
        session = small_session()
        ambient, surface = pair_of_sensors(session)
        query = freeze_query(session)
        t0 = session.now + 50.0

        session.network.sim.at(
            session.now + 1.0,
            lambda: session.submit(query, settle=False),
        )
        session.ingest(ambient.sensor_id, 1.5, timestamp=t0)
        session.ingest(surface.sensor_id, -3.0, timestamp=t0 + 1.5)
        session.drain()
        handle = session.handles["freeze-watch"]
        assert handle.active
        assert handle.stats().delivered_events == 2
        assert len(handle.matches()) == 1

    def test_cancel_mid_drain_with_settle_false_works(self):
        session = small_session()
        handle = session.submit(freeze_query(session))
        session.network.sim.at(
            session.now + 1.0, lambda: handle.cancel(settle=False)
        )
        session.drain()
        assert not handle.active
        assert handle.cancelled_at is not None


class TestDeprecationShims:
    def test_facade_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = small_session(seed=6)
            handle = session.submit(freeze_query(session), at="r2")
            ambient, _ = pair_of_sensors(session)
            session.ingest(ambient.sensor_id, 1.0)
            session.drain()
            handle.cancel()
