"""The reference shadow of ``tests/conftest.py`` is armed, and it bites.

Every suite of ``SHADOWED_MODULES`` runs its nodes on ``ShadowEngine``,
which checks each arrival's hit map against :class:`ReferenceEngine`
over the same store.  This module is one of them.  It pins that

* the shadow is armed here, and every module the set names exists (a
  renamed suite would otherwise run unshadowed without a word);
* a faithful engine passes the shadow, with real hits compared;
* an engine that drops one hit fails a small ``Session`` run.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

import repro.network.node as node_module
from repro import Query, Session

from deployments import line_deployment

TESTS = Path(__file__).parent


def test_this_module_runs_shadowed(shadow_reference):
    assert shadow_reference is not None
    assert node_module.MatchingEngine is shadow_reference


def test_every_shadowed_module_exists(shadow_reference):
    modules = inspect.getmodule(shadow_reference).SHADOWED_MODULES
    assert __name__ in modules
    missing = sorted(name for name in modules if not (TESTS / f"{name}.py").is_file())
    assert not missing


def run_session(engine, monkeypatch):
    """A naive-approach session on the line deployment: one query over
    sensors a and b, fed ten pairs of readings that all match."""
    monkeypatch.setattr(node_module, "MatchingEngine", engine)
    session = Session.create(approach="naive", deployment=line_deployment())
    handle = session.submit(
        Query().where("a", 0.0, 8.0).where("b", 0.0, 8.0).within(5.0), at="u2"
    )
    t0 = session.now + 1.0
    for i in range(10):
        session.ingest("a", 4.0, timestamp=t0 + 10.0 * i)
        session.ingest("b", 5.0, timestamp=t0 + 10.0 * i + 1.0)
    session.drain()
    return handle


def test_a_faithful_engine_passes_the_shadow(shadow_reference, monkeypatch):
    compared = []

    class Counting(shadow_reference):
        def hits(self, event):
            found = super().hits(event)
            compared.extend(found)
            return found

    handle = run_session(Counting, monkeypatch)
    assert handle.matches()
    assert compared


def test_a_dropped_hit_fails_the_run(shadow_reference, monkeypatch):
    class Dropping(shadow_reference):
        def event_added(self, event):
            super().event_added(event)
            if self._hits:
                del self._hits[next(iter(self._hits))]

    with pytest.raises(AssertionError):
        run_session(Dropping, monkeypatch)
