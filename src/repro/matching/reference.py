"""The reference matcher behind the engine interface:
``Network(matching="reference")`` installs this in place of the
incremental engine, and every probe rescans the store through
:func:`repro.model.matching.matches_involving` — the oracle the
differential fences compare :class:`MatchingEngine` against.
"""

from __future__ import annotations

from ..model.matching import matches_involving


class _ReferenceMatcher:
    def __init__(self, operator, store) -> None:
        self._operator = operator
        self._store = store

    def matches_involving(self, event):
        return matches_involving(self._operator, self._store, event)


class ReferenceEngine:
    """Stateless probes, refcounted like ``MatchingEngine``: an
    unpaired :meth:`release` raises ``KeyError``."""

    def __init__(self, store) -> None:
        self._store = store
        self._refs: dict = {}

    def retain(self, operator) -> _ReferenceMatcher:
        self._refs[operator] = self._refs.get(operator, 0) + 1
        return _ReferenceMatcher(operator, self._store)

    def release(self, operator) -> None:
        self._refs[operator] -= 1
        if not self._refs[operator]:
            del self._refs[operator]

    def operators(self) -> list:
        return sorted(self._refs, key=lambda operator: operator.op_id)
