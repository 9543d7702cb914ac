#!/usr/bin/env python
"""Head-to-head comparison of the five approaches on one workload.

Runs the paper's small-scale deployment (60 nodes, 10 base stations)
with one batch of subscriptions under each of: centralized, naive,
distributed operator placement, distributed multi-join, and
Filter-Split-Forward — then prints the Section VI metrics: subscription
load, publication (event) load, end-user recall and the multi-join
baseline's false-positive rate.

Run:  python examples/approach_comparison.py [n_subscriptions]
"""

import sys

from repro.experiments.runner import run_program
from repro.protocols.registry import all_approaches
from repro.workload.scenarios import SMALL

n_subs = int(sys.argv[1]) if len(sys.argv) > 1 else 60

deployment = SMALL.deployment()
compiled = SMALL.program(n_subs).compile(deployment)
truths = compiled.truth()
total_true = sum(t.n_instances for t in truths.values())

print(f"small-scale deployment: {deployment.n_nodes} nodes, "
      f"{len(deployment.sensors)} sensors, {n_subs} subscriptions, "
      f"{len(compiled.events)} replayed events, {total_true} true match instances\n")

header = f"{'approach':32s} {'sub load':>9s} {'event load':>11s} {'recall':>7s} {'FP rate':>8s}"
print(header)
print("-" * len(header))
for key, approach in all_approaches().items():
    result = run_program(approach, compiled, truths=truths)
    print(
        f"{approach.name:32s} {result.after_setup.subscription_units:9d} "
        f"{result.final.event_units:11d} {result.accuracy.recall:7.3f} "
        f"{result.accuracy.false_positive_rate:8.3f}"
    )

print(
    "\nReading the table (paper, Section VI): the naive approach pays for "
    "every overlapping result stream; operator placement trims covered "
    "operators but still duplicates result sets; the multi-join baseline "
    "shares streams but hauls binary-join false positives to the user; "
    "Filter-Split-Forward shares streams *and* forwards only full "
    "correlations, at the price of a (small) recall loss from its per-slot "
    "cover rule. "
    "The centralized scheme wins on subscription traffic and loses on "
    "event traffic — every reading crosses the network to the centre."
)
