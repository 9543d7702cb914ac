"""One input boundary: every public config refuses a bad number when built.

The config classes are found, not listed: a walk over the dataclass
annotations reachable from ``Scenario``, ``WorkloadProgram``,
``Deployment.specs`` and ``FSFConfig`` (an approach's config, passed to
``all_approaches`` and ``Session.create``).  Each numeric field
(``int``, ``float``, an optional one, or a tuple of them) is fed NaN,
+inf, -inf and a string, and an ``int`` field also ``2.5`` and
``True``; construction must raise ``ValueError`` as ``Class.field must
be ...`` (the :mod:`repro.model.checks` format) unless :data:`ALLOWED`
names the value with its reason.  A new config field is covered without
anyone listing it.  ``SketchConfig.domains`` (named ``(attribute, lo, hi)``
triples), ``SketchConfig.levels`` against the q-digest's range, the
``attrs_min <= attrs_max`` pairs, the ``Query`` builders,
``Network(latency=...)`` and ``EventStore(validity=...)`` are probed by
hand below, the ``Session`` clock in ``test_api_session.py``.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math
import types
import typing

import pytest

from repro.api import Query, QueryError
from repro.core import FSFConfig
from repro.model import (
    IdentifiedFilter,
    IdentifiedSubscription,
    Interval,
    Location,
    RectRegion,
    SimpleFilter,
    checks,
)
from repro.network import EventStore
from repro.network.faults import OutageWindow
from repro.network.network import Network
from repro.network.topology import Deployment, build_deployment
from repro.sketches import SketchConfig
from repro.workload.program import ProgramQuery, WorkloadProgram
from repro.workload.scenarios import SMALL, Scenario
from repro.workload.subscriptions import SubscriptionWorkloadConfig

ALLOWED = {
    "OutageWindow.end=inf": (
        "a domain that never recovers: it stays down to the end of the run, "
        "and every approach agrees with the fenced oracle "
        "(test_faults.py::TestPlanSemantics::test_outage_that_never_recovers)"
    ),
}
"""Probe values a config accepts on purpose, by ``Class.field=value``."""

NOT_WALKED = {
    (ProgramQuery, "query"): (
        "a Query builder (its where/within/near are probed below) or a "
        "model subscription, not a config"
    ),
}

BASELINES = {
    Scenario: SMALL,
    WorkloadProgram: WorkloadProgram(SubscriptionWorkloadConfig(4)),
    SubscriptionWorkloadConfig: SubscriptionWorkloadConfig(4),
    OutageWindow: OutageWindow(("hub",), 1.0, 2.0),
    ProgramQuery: ProgramQuery(Query().where("wind_speed", 0.0, 1.0), 1.0, 2.0),
}
"""A valid instance of each config with required fields (others: ``cls()``)."""


def _leaves(hint):
    """The plain types inside an annotation; a factory's are not configs."""
    if typing.get_origin(hint) is collections.abc.Callable:
        return
    args = typing.get_args(hint)
    if not args:
        yield hint
    for arg in args:
        if arg is not Ellipsis:
            yield from _leaves(arg)


def _hints(cls):
    return typing.get_type_hints(cls, localns={"Query": Query})


def config_classes():
    specs = [t for t in _leaves(_hints(Deployment)["specs"]) if t is not str]
    todo, found = [Scenario, WorkloadProgram, FSFConfig, *specs], []
    while todo:
        cls = todo.pop(0)
        if cls in found:
            continue
        found.append(cls)
        hints = _hints(cls)
        for f in dataclasses.fields(cls):
            if (cls, f.name) not in NOT_WALKED:
                leaves = _leaves(hints[f.name])
                todo += [t for t in leaves if dataclasses.is_dataclass(t)]
    return found


def numeric_fields(cls):
    """``(name, number type, is a tuple)`` of each numeric field."""
    hints = _hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) in (typing.Union, types.UnionType):
            members = [a for a in typing.get_args(hint) if a is not type(None)]
            hint = members[0] if len(members) == 1 else None
        if hint in (int, float):
            yield f.name, hint, False
        elif typing.get_origin(hint) is tuple:
            args = typing.get_args(hint)
            if args[1:] == (Ellipsis,) and args[0] in (int, float):
                yield f.name, args[0], True


def probes(kind, is_tuple):
    bad = [math.nan, math.inf, -math.inf, "2"]
    if kind is int:
        bad += [2.5, True]
    return [(value,) for value in bad] if is_tuple else bad


CONFIGS = config_classes()
CASES = [
    (cls, name, bad)
    for cls in CONFIGS
    for name, kind, is_tuple in numeric_fields(cls)
    for bad in probes(kind, is_tuple)
]


def case_id(cls, name, bad):
    return f"{cls.__name__}.{name}={bad!r}"


def test_the_walk_reaches_every_config():
    names = {cls.__name__ for cls in CONFIGS}
    assert names >= {
        "Scenario", "WorkloadProgram", "ReplayConfig", "DynamicReplayConfig",
        "ChurnConfig", "FSFConfig", "ReliabilityConfig", "QueryLifecycleConfig",
        "ProgramQuery", "FaultPlan", "OutageWindow", "LinkFault",
        "SubscriptionWorkloadConfig", "SketchConfig", "NodeSpec",
    }
    assert set(ALLOWED) <= {case_id(*case) for case in CASES}


@pytest.mark.parametrize(
    "cls, name, bad", CASES, ids=[case_id(*case) for case in CASES]
)
def test_config_refuses_a_bad_number(cls, name, bad):
    base = BASELINES[cls] if cls in BASELINES else cls()
    if case_id(cls, name, bad) in ALLOWED:
        assert getattr(dataclasses.replace(base, **{name: bad}), name) == bad
        return
    with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be "):
        dataclasses.replace(base, **{name: bad})


def test_a_refusal_names_the_field_and_the_whole_value():
    class Owner:
        pass

    tuple_message = r"^Owner\.widths must be positive and finite, got \(1\.0, nan\)$"
    with pytest.raises(ValueError, match=tuple_message):
        checks.positive(Owner(), widths=(1.0, math.nan))
    count_message = r"^Owner\.n must be an integer >= 0, got 3\.0$"
    with pytest.raises(ValueError, match=count_message):
        checks.count(Owner(), n=3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2"])
def test_a_sketch_domain_is_finite(bad):
    with pytest.raises(ValueError, match=r"^SketchConfig\.domains must be finite"):
        SketchConfig(domains=(("ambient_temperature", bad, 60.0),))
    with pytest.raises(ValueError, match=r"^SketchConfig\.domains must be finite"):
        SketchConfig(domains=(("ambient_temperature", -40.0, bad),))


@pytest.mark.parametrize("levels", [0, 31, 64])
def test_sketch_levels_stay_in_the_qdigest_range(levels):
    with pytest.raises(
        ValueError, match=r"^SketchConfig\.levels must be an integer in \[1, 30\], got "
    ):
        SketchConfig(levels=levels)


def test_sketch_levels_accept_the_qdigest_range():
    for levels in (1, 30):
        config = SketchConfig(levels=levels)
        assert config.empty_summary(0.0, 1.0).levels == levels


@pytest.mark.parametrize(
    "cls", [Scenario, SubscriptionWorkloadConfig], ids=lambda cls: cls.__name__
)
def test_attrs_min_above_attrs_max_is_refused_when_built(cls):
    base = BASELINES[cls]
    message = rf"^{cls.__name__}\.attrs_min must be <= attrs_max \(3\), got 5$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(base, attrs_min=5, attrs_max=3)
    equal = dataclasses.replace(base, attrs_min=3, attrs_max=3)
    assert (equal.attrs_min, equal.attrs_max) == (3, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_a_model_subscription_window_is_positive_and_finite(bad):
    clause = IdentifiedFilter("s", SimpleFilter("a", Interval(0.0, 1.0)))
    with pytest.raises(ValueError, match=r"^IdentifiedSubscription\.delta_t must be"):
        IdentifiedSubscription("q", [clause], bad)


class TestQueryBuilders:
    @pytest.mark.parametrize("bad", [math.nan, "2"])
    def test_where_refuses_a_non_number_bound(self, bad):
        with pytest.raises(QueryError, match=r"^Query\.lo must be"):
            Query().where("wind_speed", bad, 30.0)
        with pytest.raises(QueryError, match=r"^Query\.hi must be"):
            Query().where("wind_speed", 0.0, bad)

    def test_where_keeps_infinite_bounds(self):
        query = Query().where("wind_speed", -math.inf, 40.0)
        assert query.clauses[0].interval.lo == -math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, "2"])
    def test_within_refuses(self, bad):
        with pytest.raises(QueryError, match=r"^Query\.delta_t must be"):
            Query().within(bad)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, 0.0, "2"])
    def test_near_refuses(self, bad):
        with pytest.raises(QueryError, match=r"^Query\.delta_l must be"):
            Query().near(Location(0.0, 0.0), delta_l=bad)

    def test_near_keeps_unbounded_correlation(self):
        region = RectRegion(Interval(0.0, 10.0), Interval(0.0, 10.0))
        assert Query().near(region, delta_l=math.inf).delta_l == math.inf


@pytest.mark.parametrize("bad", [-1.0, -0.001, math.nan, math.inf, "2"])
def test_network_latency_is_finite_and_non_negative(bad):
    with pytest.raises(ValueError, match=r"^Network\.latency must be"):
        Network(build_deployment(24, 3, seed=0), latency=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, "2"])
def test_event_store_validity_is_positive_and_finite(bad):
    """A NaN validity would freeze the horizon: nothing would expire."""
    with pytest.raises(ValueError, match=r"^EventStore\.validity must be positive"):
        EventStore(validity=bad)
