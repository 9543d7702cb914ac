"""Fixture wiring for the test suite; helpers live in ``deployments``.

Shared deployment builders are deliberately kept in the importable
:mod:`deployments` module (see its docstring) — this file only exposes
them as fixtures.

Two autouse fixtures arm a check for the suites named in a module set:

* :data:`SANITIZED_MODULES` run inside the determinism sanitizer;
* :data:`SHADOWED_MODULES` run every node on a :class:`ShadowEngine`,
  which pairs the node's :class:`MatchingEngine` with a
  :class:`ReferenceEngine` over the same event store and checks the two
  at every retain, release and arrival.  The fixture monkeypatches the
  constructor the node module calls, so an engine rebuilt by a crash is
  shadowed too.  Only in-process runs are covered: the pool workers of
  ``REPRO_WORKERS`` > 1 import a fresh ``repro`` and never see the
  patch.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import forbid_nondeterminism
from repro.matching import MatchingEngine, ReferenceEngine

from deployments import fork_deployment, line_deployment

#: Suites whose whole point is bit-identical replay: they run inside the
#: runtime sanitizer, so any wall-clock or ambient-entropy call on their
#: code path raises DeterminismViolation instead of passing by luck.
SANITIZED_MODULES = frozenset({
    "test_churn_equivalence",
    "test_oracle_engine",
    "test_program_bit_identity",
    "test_cancellation",
    "test_parallel_runner",
    "test_determinism_order",
})

#: Suites whose networks run on the shadowed engine: every arrival's hit
#: map is checked against the reference matcher's.  Armed over all of
#: tier-1 it added 20-40% to the wall clock, so it covers the
#: equivalence suites only (plus its own mutation test).
SHADOWED_MODULES = frozenset({
    "test_cancellation",
    "test_churn_equivalence",
    "test_faults",
    "test_matcher_sharing",
    "test_placement",
    "test_program_bit_identity",
    "test_reference_shadow",
    "test_sketches_network",
})


def per_operator(engine, hits) -> dict:
    """``{operator: participants}`` of a hit map.  The raw maps are not
    comparable: one engine keys them by shared matcher, the other by a
    matcher per operator."""
    return {
        operator: hits[held[0]]
        for operator, held in engine._held.items()
        if held[0] in hits
    }


class ShadowEngine(MatchingEngine):
    """The node's engine, checked against the reference on the fly."""

    def __init__(self, store) -> None:
        super().__init__(store)
        self.reference = ReferenceEngine(store)

    def retain(self, operator):
        matcher = super().retain(operator)
        self.reference.retain(operator)
        assert self._held[operator][1] == self.reference._held[operator][1]
        return matcher

    def release(self, operator) -> None:
        super().release(operator)
        self.reference.release(operator)
        assert (operator in self._held) == (operator in self.reference._held)

    def operators(self):
        operators = super().operators()
        assert operators == self.reference.operators()
        return operators

    def hits(self, event):
        hits = super().hits(event)
        expected = per_operator(self.reference, self.reference.hits(event))
        assert per_operator(self, hits) == expected, event
        return hits


@pytest.fixture(autouse=True)
def sanitize_determinism(request):
    if request.module.__name__ in SANITIZED_MODULES:
        with forbid_nondeterminism():
            yield
    else:
        yield


@pytest.fixture(autouse=True)
def shadow_reference(request, monkeypatch):
    """The engine class the test's nodes build: :class:`ShadowEngine`
    in a module of :data:`SHADOWED_MODULES`, ``None`` elsewhere."""
    if request.module.__name__ in SHADOWED_MODULES:
        monkeypatch.setattr("repro.network.node.MatchingEngine", ShadowEngine)
        return ShadowEngine
    return None


@pytest.fixture
def matcher(shadow_reference, monkeypatch):
    """``matcher(mode)`` picks the engine the test's nodes build:
    ``"reference"`` keeps :class:`ShadowEngine` (every arrival checked
    against the reference matcher), ``"incremental"`` puts back the bare
    :class:`MatchingEngine` the library runs, so the same observables
    are pinned with no test code in the node's path."""

    def install(mode: str) -> None:
        assert shadow_reference is not None, "matcher() needs a shadowed module"
        assert mode in ("incremental", "reference"), mode
        if mode == "incremental":
            monkeypatch.setattr("repro.network.node.MatchingEngine", MatchingEngine)

    return install


@pytest.fixture
def line():
    return line_deployment()


@pytest.fixture
def fork():
    return fork_deployment()
