"""repro — reproduction of *Continuous Query Evaluation over Distributed
Sensor Networks* (Jurca, Michel, Herrmann, Aberer — ICDE 2010).

A publish/subscribe system for continuous multi-join queries over
distributed sensor data streams, processed by an acyclic overlay of
nodes with local knowledge only.  The package provides:

* :mod:`repro.model` — the data model: events, advertisements, filters,
  identified/abstract subscriptions, correlation operators, matching;
* :mod:`repro.sim` — a deterministic discrete-event simulation kernel;
* :mod:`repro.network` — topology, links, node storage, traffic meters;
* :mod:`repro.subsumption` — pair-wise subscription covering (FSF
  decides set subsumption exactly, slot by slot);
* :mod:`repro.core` — the paper's Filter-Split-Forward protocol
  (Algorithms 1-5);
* :mod:`repro.baselines` — centralized, naive, distributed operator
  placement and distributed multi-join comparison systems;
* :mod:`repro.workload` — SensorScope-style synthetic replay, the
  Pareto subscription generator and declarative workload programs
  (replay + sensor churn + Poisson query admit/retire in one picklable
  value, executed through the session facade);
* :mod:`repro.metrics` / :mod:`repro.experiments` — oracle, recall,
  traffic metrics and the harness regenerating every table and figure;
* :mod:`repro.api` — the live query-session facade (fluent ``Query``
  builder, push-based ``Session``, ``QueryHandle`` lifecycle handles
  with cancellation) — the public way to use all of the above.

Quickstart::

    from repro import Query, Session
    session = Session.create(approach="fsf")     # FSF on a small overlay
    handle = session.submit(Query().where(...).within(5.0))
    session.ingest("s0001", 1.5)
    session.drain()
    handle.matches()
    handle.cancel()

See ``examples/quickstart.py`` for a complete runnable tour and
``docs/API.md`` for the session API reference.
"""

from __future__ import annotations

from .api import ComplexMatch, Query, QueryError, QueryHandle, QueryStats, Session
from .core import FSFConfig, FilterSplitForwardNode, filter_split_forward_approach
from .model import (
    AbstractSubscription,
    Advertisement,
    ComplexEvent,
    IdentifiedSubscription,
    Interval,
    Location,
    SimpleEvent,
    SimpleFilter,
)
from .network import Deployment, Network, build_deployment
from .sim import Simulator
from .workload.program import (
    QueryLifecycleConfig,
    WorkloadProgram,
    execute_program,
)

__version__ = "1.0.0"

__all__ = [
    "AbstractSubscription",
    "Advertisement",
    "ComplexEvent",
    "ComplexMatch",
    "Deployment",
    "FSFConfig",
    "FilterSplitForwardNode",
    "IdentifiedSubscription",
    "Interval",
    "Location",
    "Network",
    "Query",
    "QueryError",
    "QueryHandle",
    "QueryLifecycleConfig",
    "QueryStats",
    "Session",
    "SimpleEvent",
    "SimpleFilter",
    "Simulator",
    "WorkloadProgram",
    "build_deployment",
    "execute_program",
    "filter_split_forward_approach",
    "__version__",
]

