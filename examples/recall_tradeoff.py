#!/usr/bin/env python
"""The traffic/recall trade-off of FSF's coarsening.

Section VI-F: "Reducing either the traffic, either the number of missed
events creates a tradeoff, upon which the user has to decide."  FSF's
set filter decides its per-slot question exactly, so the one dial left
is the coarsening mitigation the paper sketches: widen every forwarded
range by a fixed amount.  This example sweeps it on one workload and
prints the frontier: subscription load and event load versus end-user
recall.

Each configuration runs as one live :class:`repro.api.Session`: the
generated queries are submitted through the facade, the replayed
campaign is pushed with ``ingest_events``, and recall comes from the
session's own oracle — no agenda lambdas, no raw delivery dicts.

Run:  python examples/recall_tradeoff.py
"""

from repro.api import Session
from repro.core.filter_split_forward import FSFConfig, filter_split_forward_approach
from repro.experiments.runner import REPLAY_START
from repro.metrics.recall import measure_recall
from repro.workload.scenarios import SMALL
from repro.workload.sensorscope import build_replay
from repro.workload.subscriptions import generate_subscriptions

N_SUBS = 80

deployment = SMALL.deployment()
replay = build_replay(deployment, SMALL.replay)
workload = generate_subscriptions(
    deployment, replay.medians, SMALL.workload_config(N_SUBS), spreads=replay.spreads
)


def run_config(config: FSFConfig, truths=None):
    """One full measurement point on a fresh session.

    Every configuration replays at the same fixed virtual start time
    (``REPLAY_START`` sits far beyond any registration activity), so
    event timestamps — and therefore the oracle ground truth, which
    only depends on the queries and the replay — are identical across
    configurations; the first session's ``session.truth`` is shared
    instead of being recomputed for every point.
    """
    session = Session.create(
        approach=filter_split_forward_approach(config), deployment=deployment
    )
    for placed in workload:
        session.submit(placed.subscription, at=placed.node_id)
    after_subs = session.traffic.snapshot()
    events = replay.shifted(REPLAY_START)
    session.ingest_events(events)
    session.drain()
    traffic = session.traffic.snapshot().minus(after_subs)
    if truths is None:
        truths = session.truth(events)
    report = measure_recall(truths, session.delivery)
    return after_subs.subscription_units, traffic.event_units, report, truths


configs = [
    (f"coarsening {amount:g}" + (" (default)" if amount == 0 else ""),
     FSFConfig(coarsening=amount))
    for amount in (0.0, 0.5, 1.0, 2.0)
]

truths = None
rows = []
for label, config in configs:
    sub_load, event_load, report, truths = run_config(config, truths)
    rows.append((label, sub_load, event_load, report))

print(f"{N_SUBS} subscriptions on the small-scale deployment; "
      f"{rows[0][3].true_instances} true instances\n")
header = (f"{'configuration':42s} {'sub load':>9s} {'event load':>11s} "
          f"{'recall':>7s}")
print(header)
print("-" * len(header))
for label, sub_load, event_load, report in rows:
    print(f"{label:42s} {sub_load:9d} {event_load:11d} {report.recall:7.3f}")

first, last = rows[0], rows[-1]
print(
    f"\nCoarsening widens every forwarded range: event load goes "
    f"{first[2]} -> {last[2]} units while recall goes "
    f"{first[3].recall:.3f} -> {last[3].recall:.3f}.  What FSF still "
    "misses comes from its per-slot cover rule (a pair of events that no "
    "single covering operator matches), so wider ranges buy traffic, and "
    "little recall."
)
