"""Ablation benches for the design choices DESIGN.md calls out.

1. Coarsening: the Section VI-F traffic/recall mitigation.
2. Binary-join false positives versus attribute count: the paper's
   explanation for the growing FSF-vs-multi-join margin ("binary joins
   are equivalent to multi-joins with two attributes, but become
   approximations for multi-joins over three attributes; the quality of
   the approximation degrades with increasing numbers of attributes").
"""

import pytest

from repro.baselines.multijoin import multijoin_approach
from repro.core.filter_split_forward import FSFConfig, filter_split_forward_approach
from repro.experiments.runner import run_program
from repro.network.topology import build_deployment
from repro.workload.program import WorkloadProgram
from repro.workload.scenarios import SMALL
from repro.workload.sensorscope import ReplayConfig
from repro.workload.subscriptions import SubscriptionWorkloadConfig


def test_ablation_coarsening(benchmark):
    """Widening every forwarded range: more event traffic than the
    default, and no less recall (the user-node match stays exact)."""
    compiled = SMALL.program(60).compile(SMALL.deployment())
    truths = compiled.truth()

    def sweep():
        return {
            label: run_program(
                filter_split_forward_approach(config), compiled, truths=truths
            )
            for label, config in (
                ("default", FSFConfig()),
                ("coarsening=1", FSFConfig(coarsening=1.0)),
            )
        }

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for label, r in rows.items():
        print(
            f"{label:16s} sub={r.after_setup.subscription_units:6d} "
            f"evt={r.final.event_units:7d} recall={r.accuracy.recall:.3f}"
        )
    coarse, default = rows["coarsening=1"], rows["default"]
    assert coarse.final.event_units > default.final.event_units
    assert coarse.accuracy.recall >= default.accuracy.recall
    benchmark.extra_info["recalls"] = {
        k: r.accuracy.recall for k, r in rows.items()
    }


def test_ablation_false_positives_vs_attribute_count(benchmark):
    """Multi-join false-positive rate grows with the join width."""
    deployment = build_deployment(60, 10, seed=3)

    def sweep():
        rates = {}
        for k in (2, 3, 5):
            compiled = WorkloadProgram(
                subscriptions=SubscriptionWorkloadConfig(
                    n_subscriptions=40, attrs_min=k, attrs_max=k, seed=9
                ),
                replay=ReplayConfig(rounds=16, seed=3),
            ).compile(deployment)
            result = run_program(multijoin_approach(), compiled)
            rates[k] = result.accuracy.false_positive_rate
        return rates

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nmulti-join false-positive rate by attribute count: {rates}")
    # Binary joins are exact for 2 attributes, approximate beyond.
    assert rates[2] <= rates[3] + 0.02
    assert rates[5] > rates[2]
    benchmark.extra_info["fp_rates"] = rates
