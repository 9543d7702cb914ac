"""The benchmark's trace contract, checked from the ``src/`` side.

``benchmarks/e2e/trace.py`` wraps ``src/`` callables *by name*; a target
that no longer resolves is reported as missing and its per-layer metrics
read ``null`` — by design for a deleted class (a removed engine needs no
benchmark edit), silently wrong for a renamed method of a living one.
This test is the second case's alarm: nothing under ``benchmarks/e2e/``
is edited to keep it green, the method keeps its name.
"""

from __future__ import annotations

import importlib

from e2e.trace import TARGETS

# Names the arrival-driven matching change (PR 19) rewrote or re-routed:
# these must exist, not merely "resolve if the class does".
REQUIRED = {
    "repro.matching:OperatorMatcher.matches_involving",
    "repro.matching:MatchingEngine.event_added",
    "repro.network:Node.deliver_local_matches",
    "repro.network:Node.pubsub_forward",
    "repro.network:Node.stream_forward",
    "repro.network:Node.handle_event",
}


def owner_and_method(path: str):
    module_name, _, dotted = path.partition(":")
    class_name, _, method = dotted.partition(".")
    module = importlib.import_module(module_name)
    return getattr(module, class_name, None), method


def test_every_target_on_a_living_class_is_callable():
    paths = {path for _span, path, _kind in TARGETS}
    assert REQUIRED <= paths
    for path in sorted(paths):
        owner, method = owner_and_method(path)
        if owner is None:
            assert path not in REQUIRED, path
            continue  # a deleted class: its metrics read null by design
        assert callable(getattr(owner, method, None)), (
            f"{path}: {owner.__name__} lost {method!r}; the trace would "
            "report its layer as null"
        )
