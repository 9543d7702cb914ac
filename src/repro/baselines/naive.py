"""Naive approach — the lower-bound baseline (Section VI).

"Forwards all received queries (no filtering) and constructs result
sets per query (no optimization for result set overlap)."  Splitting is
still the natural *simple* splitting along diverging advertisement
paths (Table II), so the comparison isolates the value of filtering and
of shared event dissemination rather than of routing.
"""

from __future__ import annotations

from ..network.node import Node
from ..protocols.base import Approach


class NaiveNode(Node):
    """The base pipeline as it stands: no filtering, simple splitting,
    one result stream per stored operator — overlapping subscriptions
    pay once each (the redundancy the paper's metrics expose)."""

    # Bound here only because benchmarks/e2e/tests/test_harness.py, which
    # only a [benchmark] PR may edit, asserts the tracer wraps this name.
    handle_event = Node.handle_event


def naive_approach() -> Approach:
    return Approach(
        key="naive",
        name="Naive approach",
        subscription_filtering="None",
        subscription_splitting="Simple",
        event_propagation="Full result sets",
        make_node=NaiveNode,
    )
