"""End-user event recall (Fig. 12) and false-positive accounting.

Recall: the fraction of true match instances the user could observe
from what was actually delivered.  An instance ``(subscription,
trigger)`` counts as delivered iff the trigger event reached the user
*and* the delivered subset still contains a valid complex event
anchored at that trigger — i.e. the user can reconstruct the match from
what they received.  Deterministic approaches measure 1.0 by
construction; Filter-Split-Forward trades a little recall for traffic
through its per-slot cover rule, which declares covered some operators
that the union of the stored operators does not cover.

False positives (multi-join baseline): delivered events that take part
in no true instance of that subscription — pure extra traffic from the
binary-join approximation.

The reconstruction is the *user node's final local check* replayed over
the delivered subset: the offline matcher
:func:`repro.matching.engine.replay` builds over those events — the one
the oracle asks over the published stream — decides each delivered
trigger, with the same decisions as the reference
:func:`repro.model.matching.instance_exists` (machine-checked by
``tests/test_spatial_final_check.py``).

What a user rebuilds depends only on the operator's match structure,
the trigger set and the delivered events, so clones equal in all three
are counted once (the key is built only for a shared structure).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from ..matching.engine import match_structure, replay
from ..network.delivery import DeliveryLog
from .oracle import SubscriptionTruth


@dataclass(frozen=True, slots=True)
class RecallReport:
    """Aggregated over all subscriptions of one run."""

    true_instances: int
    delivered_instances: int
    delivered_events: int
    false_positive_events: int

    @property
    def recall(self) -> float:
        """1.0 when there was nothing to deliver (vacuous success)."""
        if self.true_instances == 0:
            return 1.0
        return self.delivered_instances / self.true_instances

    @property
    def false_positive_rate(self) -> float:
        """Share of delivered events that belong to no true match."""
        if self.delivered_events == 0:
            return 0.0
        return self.false_positive_events / self.delivered_events


def measure_recall(
    truths: Mapping[str, SubscriptionTruth],
    delivery: DeliveryLog,
) -> RecallReport:
    """Compare delivered events against the oracle's instances."""
    structures = {
        sub_id: match_structure(truth.operator) for sub_id, truth in truths.items()
    }
    # Clone-free inputs pay one structure hash per subscription.
    shared = {s for s, n in Counter(structures.values()).items() if n > 1}
    counted: dict[object, int] = {}
    true_instances = 0
    delivered_instances = 0
    delivered_events = 0
    false_positives = 0
    for sub_id, truth in truths.items():
        delivered = delivery.delivered(sub_id)
        delivered_events += len(delivered)
        false_positives += sum(
            1 for key in delivered if key not in truth.participants
        )
        if not truth.triggers:
            continue
        true_instances += len(truth.triggers)
        if not delivered:
            continue
        structure = structures[sub_id]
        key = sub_id
        if structure in shared:
            key = (structure, truth.triggers, frozenset(delivered))
        if key not in counted:
            matcher = replay(truth.operator, delivered.values())
            counted[key] = sum(
                1
                for trigger_key in truth.triggers
                if trigger_key in delivered
                and matcher.instance_exists(delivered[trigger_key])
            )
        delivered_instances += counted[key]
    return RecallReport(
        true_instances, delivered_instances, delivered_events, false_positives
    )
