"""The declarative workload-program API.

Pinned here:

* :class:`QueryLifecycleConfig` validation and the determinism /
  shape of :func:`build_lifecycle_edges` (Poisson admissions inside the
  fraction-trimmed window, exponential vs fixed vs never holds);
* :class:`WorkloadProgram` compilation: prefix-stable pools, setup vs
  scheduled admissions, oracle fences on the simulation clock,
  explicit :class:`ProgramQuery` admissions (fluent builders included),
  picklability, and source/program compatibility checks;
* :func:`execute_program` driving a whole program through the Session
  facade: scheduled admissions and retirements actually run, at their
  scheduled instants, and teardown traffic is metered separately.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.api import Query
from repro.metrics.recall import measure_recall
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.workload.program import (
    ADMIT_WINDOW,
    REPLAY_START,
    ProgramQuery,
    QueryLifecycleConfig,
    WorkloadProgram,
    build_lifecycle_edges,
    execute_program,
)
from repro.workload.scenarios import SMALL
from repro.workload.sensorscope import ChurnConfig, DynamicReplayConfig, ReplayConfig
from repro.workload.subscriptions import (
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)


@pytest.fixture(scope="module")
def deployment():
    return build_deployment(24, 3, seed=2)


def tiny_program(n=6, lifecycle=None, **kwargs):
    return WorkloadProgram(
        subscriptions=SubscriptionWorkloadConfig(
            n_subscriptions=n, attrs_min=3, attrs_max=5, seed=2
        ),
        replay=ReplayConfig(rounds=6, seed=3),
        lifecycle=lifecycle,
        **kwargs,
    )


class TestLifecycleConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"admit_rate": 0.0},
            {"admit_rate": -1.0},
            {"hold": 0.0},
            {"hold": -5.0},
            # NaN and infinity: tests/test_input_checks.py
            pytest.param({"max_admissions": -1}, id="kwargs8"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QueryLifecycleConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = QueryLifecycleConfig()
        assert cfg.hold is not None and cfg.admit_rate > 0


class TestLifecycleEdges:
    CFG = QueryLifecycleConfig(admit_rate=0.2, hold=20.0, seed=5)

    def test_deterministic(self):
        a = build_lifecycle_edges(7, 300.0, self.CFG)
        b = build_lifecycle_edges(7, 300.0, self.CFG)
        assert a == b and len(a) > 0

    def test_seeds_matter(self):
        assert build_lifecycle_edges(7, 300.0, self.CFG) != build_lifecycle_edges(
            8, 300.0, self.CFG
        )

    def test_admissions_inside_window_and_ordered(self):
        span = 300.0
        edges = build_lifecycle_edges(7, span, self.CFG)
        admits = [e.admit for e in edges]
        assert admits == sorted(admits)
        start, end = ADMIT_WINDOW
        assert all(start * span <= t < end * span for t in admits)
        assert all(e.retire is not None and e.retire > e.admit for e in edges)

    def test_hold_none_never_retires(self):
        cfg = QueryLifecycleConfig(admit_rate=0.2, hold=None, seed=5)
        edges = build_lifecycle_edges(7, 300.0, cfg)
        assert edges and all(e.retire is None for e in edges)

    def test_max_admissions_caps(self):
        cfg = QueryLifecycleConfig(admit_rate=10.0, hold=5.0, max_admissions=4)
        assert len(build_lifecycle_edges(7, 300.0, cfg)) == 4

    def test_rejects_empty_span(self):
        with pytest.raises(ValueError, match="span"):
            build_lifecycle_edges(7, 0.0, self.CFG)


class TestProgramValidation:
    def test_static_prefix_bounds(self):
        with pytest.raises(ValueError, match="static_prefix"):
            tiny_program(static_prefix=7)
        assert tiny_program(static_prefix=6).prefix == 6
        assert tiny_program().prefix == 6

    def test_program_query_retire_after_admit(self):
        with pytest.raises(ValueError, match="retire"):
            ProgramQuery(Query().where("x", 0, 1), admit=10.0, retire=5.0)


class TestCompile:
    LIFECYCLE = QueryLifecycleConfig(admit_rate=0.2, hold=20.0, seed=5)

    def test_setup_only_matches_generator_prefix(self, deployment):
        """A settled admit-at-t=0 program draws exactly the historical
        fixed-prefix workload (prefix-stable generation)."""
        program = tiny_program(n=6).with_prefix(4)
        compiled = program.compile(deployment)
        replay = program.source(deployment).replay
        direct = generate_subscriptions(
            deployment,
            replay.medians,
            SubscriptionWorkloadConfig(
                n_subscriptions=4, attrs_min=3, attrs_max=5, seed=2
            ),
            spreads=replay.spreads,
        )
        assert [a.subscription for a in compiled.setup] == [
            p.subscription for p in direct
        ]
        assert [a.node_id for a in compiled.setup] == [p.node_id for p in direct]
        assert compiled.scheduled == ()
        assert compiled.activations == {} and compiled.cancellations == {}

    def test_lifecycle_admissions_on_sim_clock(self, deployment):
        program = tiny_program(lifecycle=self.LIFECYCLE)
        source = program.source(deployment)
        compiled = program.compile(deployment, source)
        assert len(compiled.setup) == 6
        assert len(compiled.scheduled) == len(source.edges) > 0
        for adm, edge in zip(compiled.scheduled, source.edges):
            assert adm.admit == pytest.approx(REPLAY_START + edge.admit)
            assert adm.retire == pytest.approx(REPLAY_START + edge.retire)
            assert compiled.activations[adm.sub_id] == adm.admit
            assert compiled.cancellations[adm.sub_id] == adm.retire
        # Lifecycle queries come from the pool *after* the prefix.
        scheduled_ids = {a.sub_id for a in compiled.scheduled}
        setup_ids = {a.sub_id for a in compiled.setup}
        assert not scheduled_ids & setup_ids

    def test_prefix_views_share_one_source(self, deployment):
        program = tiny_program(lifecycle=self.LIFECYCLE)
        source = program.source(deployment)
        small = program.with_prefix(2).compile(deployment, source)
        large = program.with_prefix(6).compile(deployment, source)
        assert [a.sub_id for a in small.setup] == [
            a.sub_id for a in large.setup
        ][:2]
        assert len(small.scheduled) == len(large.scheduled)

    def test_foreign_source_rejected(self, deployment):
        program = tiny_program(lifecycle=self.LIFECYCLE)
        other = tiny_program(lifecycle=None).source(deployment)
        with pytest.raises(ValueError, match="different program"):
            program.compile(deployment, other)
        foreign_deployment = build_deployment(24, 3, seed=9)
        with pytest.raises(ValueError, match="different program"):
            program.compile(foreign_deployment, program.source(deployment))
        # The seed alone does not identify a deployment: a different
        # topology built from the *same* seed must be rejected too.
        same_seed_other_topology = build_deployment(30, 5, seed=deployment.seed)
        with pytest.raises(ValueError, match="different program"):
            program.compile(
                same_seed_other_topology, program.source(deployment)
            )

    def test_explicit_queries_compile(self, deployment):
        sensors = deployment.sensors_of_group(0)[:2]
        query = (
            Query()
            .named("watch")
            .where(sensors[0].sensor_id, -1e6, 1e6)
            .where(sensors[1].sensor_id, -1e6, 1e6)
            .within(5.0)
        )
        program = tiny_program(
            n=2,
            queries=(
                ProgramQuery(query, admit=0.0),
                ProgramQuery(query.named("later"), admit=30.0, retire=60.0),
            ),
        )
        compiled = program.compile(deployment)
        by_id = {a.sub_id: a for a in compiled.admissions}
        assert by_id["watch"].admit is None and by_id["watch"].retire is None
        assert by_id["later"].admit == pytest.approx(REPLAY_START + 30.0)
        assert by_id["later"].retire == pytest.approx(REPLAY_START + 60.0)
        assert by_id["later"].node_id == deployment.user_nodes[0]

    def test_duplicate_ids_rejected(self, deployment):
        sensor = deployment.sensors[0]
        clash = Query().named("q00000").where(sensor.sensor_id, 0.0, 1.0)
        program = tiny_program(queries=(ProgramQuery(clash),))
        with pytest.raises(ValueError, match="duplicate"):
            program.compile(deployment)

    def test_program_is_picklable(self, deployment):
        program = tiny_program(
            lifecycle=self.LIFECYCLE,
            dynamic=None,
        )
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program
        assert clone.compile(deployment).admissions == program.compile(
            deployment
        ).admissions

    def test_dynamic_program_with_churn(self, deployment):
        program = WorkloadProgram(
            subscriptions=SubscriptionWorkloadConfig(
                n_subscriptions=4, attrs_min=3, attrs_max=5, seed=2
            ),
            dynamic=DynamicReplayConfig(days=2, rounds_per_day=6, day_seconds=100.0),
            churn=ChurnConfig(cycle_fraction=0.3),
            lifecycle=self.LIFECYCLE,
        )
        compiled = program.compile(deployment)
        assert compiled.churn is not None
        assert compiled.events and compiled.scheduled


class TestExecution:
    LIFECYCLE = QueryLifecycleConfig(admit_rate=0.2, hold=20.0, seed=5)

    @pytest.fixture(scope="class")
    def outcome(self, deployment):
        program = tiny_program(lifecycle=self.LIFECYCLE)
        compiled = program.compile(deployment)
        execution = execute_program(compiled, all_approaches()["fsf"])
        return compiled, execution

    def test_every_scheduled_admission_ran(self, outcome):
        compiled, execution = outcome
        assert execution.admitted == len(compiled.scheduled) > 0
        assert set(execution.handles) == {a.sub_id for a in compiled.admissions}

    def test_retirements_ran_at_their_scheduled_instants(self, outcome):
        compiled, execution = outcome
        session = execution.session
        assert execution.retired == len(compiled.cancellations) > 0
        for sub_id, when in compiled.cancellations.items():
            assert session.cancellations[sub_id] == pytest.approx(when)
            assert not execution.handles[sub_id].active

    def test_teardown_units_metered_separately(self, outcome):
        compiled, execution = outcome
        assert execution.final.teardown_units > 0
        assert execution.final.teardown_units < execution.final.subscription_units
        # Setup never tears anything down.
        assert execution.after_setup.teardown_units == 0

    def test_execution_is_deterministic(self, deployment, outcome):
        compiled, execution = outcome
        again = execute_program(compiled, all_approaches()["fsf"])
        assert again.final == execution.final
        assert again.retired == execution.retired
        assert set(again.session.delivery.delivered("q00000")) == set(
            execution.session.delivery.delivered("q00000")
        )

    def test_churn_on_a_static_replay(self):
        """Churn composes with the static campaign: the fixed-clock replay
        thins out away sensors and the schedule reaches the network, and
        every approach stays exact against the churn-fenced oracle."""
        scenario = replace(SMALL, churn=ChurnConfig(cycle_fraction=0.25))
        compiled = scenario.program(30).compile(scenario.deployment())
        assert len(compiled.churn.transitions()) == 24
        assert len(compiled.events) == 1153  # 50 sensors x 24 rounds, thinned
        truths = compiled.truth()
        for key, approach in all_approaches().items():
            delivery = execute_program(compiled, approach).session.network.delivery
            report = measure_recall(truths, delivery)
            assert report.true_instances == 106, key
            assert report.recall == 1.0, key
            # Multi-join's partial matches are false positives by design.
            expected = 412 if key == "multijoin" else 0
            assert report.false_positive_events == expected, key
