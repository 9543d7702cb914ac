"""Fixture wiring for the test suite; helpers live in ``deployments``.

Shared deployment builders are deliberately kept in the importable
:mod:`deployments` module (see its docstring) — this file only exposes
them as fixtures.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.sanitizer import forbid_nondeterminism
from repro.network.network import Network

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


@pytest.fixture(autouse=True)
def sanitize_determinism(request):
    if request.module.__name__ in SANITIZED_MODULES:
        with forbid_nondeterminism():
            yield
    else:
        yield


@pytest.fixture
def facade_matching(monkeypatch):
    """``facade_matching(mode)`` builds every facade-made network of the
    test with ``Network(matching=mode)`` — the one seam left for running
    ``Session`` / ``execute_program`` / ``run_program`` on the reference
    matcher, none of which take ``matching=`` themselves."""

    def install(mode: str) -> None:
        monkeypatch.setattr(
            "repro.api.session.Network", functools.partial(Network, matching=mode)
        )

    return install


@pytest.fixture
def line():
    return line_deployment()


@pytest.fixture
def fork():
    return fork_deployment()
