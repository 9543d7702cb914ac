"""Cross-approach integration tests on a reduced real scenario.

These are the invariants the paper's evaluation rests on; they must
hold on any workload, so we check them on a small but non-trivial run
of all five systems over the same deployment, subscriptions and events.
"""

import pytest

from repro.experiments.runner import run_program
from repro.network.topology import build_deployment
from repro.protocols.registry import all_approaches
from repro.workload.program import WorkloadProgram
from repro.workload.sensorscope import ReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig


@pytest.fixture(scope="module")
def arena():
    compiled = WorkloadProgram(
        subscriptions=SubscriptionWorkloadConfig(
            n_subscriptions=32, attrs_min=3, attrs_max=5, seed=5
        ),
        replay=ReplayConfig(rounds=8, seed=5),
    ).compile(build_deployment(36, 4, seed=5))
    truths = compiled.truth()
    results = {
        key: run_program(approach, compiled, truths=truths)
        for key, approach in all_approaches().items()
    }
    return compiled, truths, results


class TestCrossApproachInvariants:
    def test_deterministic_approaches_reach_full_recall(self, arena):
        _, _, results = arena
        for key in ("centralized", "naive", "operator_placement", "multijoin"):
            assert results[key].accuracy.recall == 1.0, key

    def test_fsf_recall_in_paper_band(self, arena):
        _, _, results = arena
        assert results["fsf"].accuracy.recall >= 0.90

    def test_only_multijoin_has_false_positives(self, arena):
        _, _, results = arena
        assert results["multijoin"].accuracy.false_positive_rate > 0.0
        for key in ("centralized", "naive", "operator_placement", "fsf"):
            assert results[key].accuracy.false_positive_rate == 0.0, key

    def test_subscription_load_ordering(self, arena):
        _, _, results = arena
        sub = {k: r.after_setup.subscription_units for k, r in results.items()}
        assert sub["centralized"] < sub["fsf"]
        assert sub["fsf"] <= sub["operator_placement"] <= sub["naive"]

    def test_event_load_ordering(self, arena):
        _, _, results = arena
        evt = {k: r.final.event_units for k, r in results.items()}
        assert evt["fsf"] < evt["multijoin"]
        assert evt["fsf"] < evt["operator_placement"] <= evt["naive"]

    def test_no_subscriptions_dropped(self, arena):
        _, _, results = arena
        for key, result in results.items():
            assert result.dropped_subscriptions == 0, key

    def test_oracle_sanity(self, arena):
        compiled, truths, _ = arena
        assert sum(t.n_instances for t in truths.values()) > 0
        assert set(truths) == {a.sub_id for a in compiled.admissions}

    def test_same_workload_same_result(self, arena):
        """Determinism: re-running an approach reproduces every count."""
        compiled, truths, results = arena
        again = run_program(all_approaches()["fsf"], compiled, truths=truths)
        first = results["fsf"]
        assert again == first
