"""Workload programs — one declarative experiment timeline.

The experiment layer historically drove three siloed timeline sources:
event replay (:class:`ReplayConfig` / :class:`DynamicReplayConfig`),
sensor churn (:class:`ChurnConfig`), and a fixed subscription prefix
registered at t=0 and never retired.  A :class:`WorkloadProgram`
composes all three **plus a query lifecycle** — Poisson admissions with
exponential-or-fixed holds and retirement
(:class:`QueryLifecycleConfig`, in the style of Mitici et al.'s query
assignment workloads) — into one declarative, picklable value that
compiles against a deployment and executes through the
:class:`repro.api.Session` facade.

The pipeline is three-staged so the series runner can memoise the
expensive middle::

    WorkloadProgram ── source(deployment) ──► ProgramSource
        (declarative, picklable)    (replay + workload + lifecycle draws)
                │                               │
                └──── compile(deployment, source) ──► CompiledProgram
                                                (admissions + events +
                                                 churn + oracle fences)
                                  │
                execute_program(compiled, approach) ──► ProgramExecution
                                  (a Session driven end to end)

Everything random routes through :func:`repro.seeding.derive_seed`, so
a program compiles bit-identically in any process under any
``PYTHONHASHSEED`` — the property the sharded experiment runner (and
future cross-machine sharding: programs are self-contained by
construction) depends on.

Clock convention: **program time 0 is the replay start**.  Compilation
shifts everything by :data:`REPLAY_START` (the fixed virtual instant the
experiment runner has always used), so admissions, retirements, churn
transitions and publications share one simulation clock and the
oracle's per-query ``[submit, cancel]`` fences line up with the
network's lifecycle edges exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..metrics.fences import Fences
from ..model import checks
from ..model.events import SimpleEvent
from ..model.subscriptions import Subscription
from ..network.faults import FaultPlan
from ..network.reliability import ReliabilityConfig
from ..network.topology import Deployment
from ..seeding import derive_seed
from .sensorscope import (
    ChurnConfig,
    ChurnSchedule,
    DynamicReplayConfig,
    Replay,
    ReplayConfig,
    build_replay,
)
from .subscriptions import (
    PlacedSubscription,
    SubscriptionWorkloadConfig,
    generate_subscriptions,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.handle import QueryHandle
    from ..api.query import Query
    from ..api.session import Session
    from ..metrics.oracle import SubscriptionTruth
    from ..network.links import TrafficSnapshot
    from ..protocols.base import Approach

REPLAY_START = 10_000.0
"""Virtual time at which event replay begins — far beyond any
subscription-phase activity, so the replayed timestamps (and therefore
the oracle's ground truth) are identical for every approach.  Program
time 0 maps here."""


# ---------------------------------------------------------------------------
# the query lifecycle: Poisson admit, exponential hold, retire
# ---------------------------------------------------------------------------
ADMIT_WINDOW = (0.1, 0.85)
"""The part of the replay span, as ``(start, end)`` fractions, in which
lifecycle admissions are drawn."""


@dataclass(frozen=True, slots=True)
class QueryLifecycleConfig:
    """An ongoing query-assignment workload over the replay span.

    Users keep arriving while sensors stream: admissions form a Poisson
    process of rate ``admit_rate`` (queries per unit of virtual time)
    inside :data:`ADMIT_WINDOW` of the replay span, and each admitted
    query is retired after a hold drawn exponentially with mean
    ``hold``; ``hold=None`` admits without ever retiring.  All draws are seeded via
    :func:`repro.seeding.derive_seed`, so the schedule is identical in
    every process.
    """

    admit_rate: float = 0.05
    hold: float | None = 120.0
    max_admissions: int = 500
    seed: int = 23

    def __post_init__(self) -> None:
        checks.positive(self, "admit_rate")
        if self.hold is not None:
            checks.positive(self, "hold")
        checks.count(self, "max_admissions", "seed")


@dataclass(frozen=True, slots=True)
class LifecycleEdge:
    """One drawn admit/retire pair on the program clock (0 = replay
    start); ``retire=None`` means the query stays until the end."""

    admit: float
    retire: float | None


def build_lifecycle_edges(
    deployment_seed: int, span: float, config: QueryLifecycleConfig
) -> tuple[LifecycleEdge, ...]:
    """The deterministic admit/retire schedule over a replay of ``span``.

    A single seeded stream draws inter-admission gaps and holds
    alternately, so the schedule is a pure function of
    ``(deployment_seed, config)`` — independent of process, platform
    and ``PYTHONHASHSEED``.
    """
    if span <= 0:
        raise ValueError("span must be positive")
    rng = np.random.default_rng(
        derive_seed(deployment_seed, config.seed, "admit-clock")
    )
    lo, hi = ADMIT_WINDOW[0] * span, ADMIT_WINDOW[1] * span
    edges: list[LifecycleEdge] = []
    t = lo
    while len(edges) < config.max_admissions:
        t += float(rng.exponential(1.0 / config.admit_rate))
        if t >= hi:
            break
        if config.hold is None:
            retire = None
        else:
            retire = t + float(rng.exponential(config.hold))
        edges.append(LifecycleEdge(t, retire))
    return tuple(edges)


# ---------------------------------------------------------------------------
# the program: replay + churn + lifecycle + explicit queries, declaratively
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProgramQuery:
    """One explicitly authored admission (a fluent :class:`repro.api.Query`
    builder or a pre-built model subscription).

    ``admit``/``retire`` are program-clock instants; ``admit <= 0``
    means the query is registered in the settled setup phase before the
    replay (the paper's sequential protocol).  ``at`` names the user's
    node (default: the deployment's first user node).
    """

    query: "Query | Subscription"
    admit: float = 0.0
    retire: float | None = None
    at: str | None = None

    def __post_init__(self) -> None:
        checks.finite(self, "admit")
        if self.retire is not None:
            checks.finite(self, "retire")
            if self.retire <= max(self.admit, 0.0):
                raise ValueError(
                    f"retire at {self.retire:g} must come after admit at "
                    f"{self.admit:g} (and after the replay starts)"
                )


@dataclass(frozen=True)
class WorkloadProgram:
    """One declarative experiment: who publishes, who churns, who asks.

    * ``subscriptions`` drives the generated query pool (the existing
      subscription generator); the first ``static_prefix`` of them
      (default: all) are admitted settled at t=0 and never retired —
      exactly the historical fixed-prefix protocol;
    * ``replay``/``dynamic`` select the measurement campaign (static
      one-day vs multi-day drifting/bursty), ``churn`` the sensor
      leave/rejoin schedule over either;
    * ``lifecycle`` appends the Poisson admit/retire workload, drawing
      its queries from the generated pool *after* the static prefix;
    * ``queries`` appends explicitly authored admissions (fluent
      :class:`repro.api.Query` builders or model subscriptions);
    * ``faults`` runs the whole program over an unreliable transport
      (:class:`~repro.network.faults.FaultPlan`: link loss/delay plus
      correlated broker outages, compiled into scheduled crash/recover
      edges); ``reliability`` opts the brokers into the ack/retransmit
      and soft-state-refresh layer;
    * ``placement`` selects operator placement: ``"paper"`` (the
      heuristic, the default — compiled programs carry no plans and are
      bit-identical to pre-placement programs) or ``"compiled"`` (the
      ``repro.placement`` compiler prices candidate rendezvous nodes
      against the architecture graph and the replay statistics, and
      registration executes the resulting
      :class:`~repro.placement.plan.PlacementPlan` routing tables).
      Compiled plans compose with ``churn``, ``faults`` and
      ``reliability``: a plan replaces only the split, so a departure's
      retraction fences the sensor's stored events at every broker,
      planned pieces included, and a rejoin's re-flood lifts the fence.
      Construction checks the placement value and the ``static_prefix``
      range.

    Programs are frozen, hashable and picklable — a program plus a
    deployment seed *is* the experiment, which is what makes points
    shardable across processes (and, later, machines).
    """

    subscriptions: SubscriptionWorkloadConfig
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    dynamic: DynamicReplayConfig | None = None
    churn: ChurnConfig | None = None
    lifecycle: QueryLifecycleConfig | None = None
    static_prefix: int | None = None
    queries: tuple[ProgramQuery, ...] = ()
    faults: FaultPlan | None = None
    reliability: ReliabilityConfig | None = None
    placement: str = "paper"

    def __post_init__(self) -> None:
        if self.static_prefix is not None:
            checks.count(self, "static_prefix")
        if self.placement not in ("paper", "compiled"):
            raise ValueError(
                f"placement must be 'paper' or 'compiled', got {self.placement!r}"
            )
        if self.prefix > self.subscriptions.n_subscriptions:
            raise ValueError(
                f"static_prefix {self.static_prefix} outside "
                f"[0, {self.subscriptions.n_subscriptions}]"
            )

    @property
    def prefix(self) -> int:
        """The resolved static prefix (admit-at-0, never retired)."""
        if self.static_prefix is None:
            return self.subscriptions.n_subscriptions
        return self.static_prefix

    def with_prefix(self, n: int) -> "WorkloadProgram":
        """The same program measured at static prefix ``n`` — the
        per-point view ``run_series`` walks (generation is
        prefix-stable, so smaller prefixes reuse one source)."""
        return replace(self, static_prefix=n)

    # ------------------------------------------------------------------
    def source(self, deployment: Deployment) -> "ProgramSource":
        """Materialise the expensive, prefix-independent middle stage.

        Synthesises the replay, draws the lifecycle schedule over its
        span, and generates a subscription pool long enough for the
        largest prefix plus every lifecycle admission.  One source
        serves every ``with_prefix`` view of the same program — the
        series runner memoises it per (scenario, scale) exactly like
        it memoises churn state.
        """
        replay = build_replay(deployment, self.dynamic or self.replay, self.churn)
        edges = (
            build_lifecycle_edges(deployment.seed, replay.span, self.lifecycle)
            if self.lifecycle is not None
            else ()
        )
        pool_cfg = replace(
            self.subscriptions,
            n_subscriptions=self.subscriptions.n_subscriptions + len(edges),
        )
        workload = tuple(
            generate_subscriptions(
                deployment, replay.medians, pool_cfg, spreads=replay.spreads
            )
        )
        return ProgramSource(
            program=self,
            deployment_fingerprint=deployment_fingerprint(deployment),
            replay=replay,
            events=tuple(replay.shifted(REPLAY_START)),
            churn=replay.churn_shifted(REPLAY_START),
            workload=workload,
            edges=edges,
        )

    def compile(
        self, deployment: Deployment, source: "ProgramSource | None" = None
    ) -> "CompiledProgram":
        """Resolve the program against ``deployment`` into one timeline.

        ``source`` may be a pre-built :meth:`source` of the *same*
        program (``static_prefix`` aside); passing a foreign source is
        rejected rather than silently compiling the wrong workload.
        """
        if self.faults is not None:
            self.faults.validate_against(deployment)
        if source is None:
            source = self.source(deployment)
        elif not source.compatible_with(self, deployment):
            raise ValueError(
                "source was built for a different program or deployment; "
                "rebuild it with program.source(deployment)"
            )
        prefix = self.prefix
        admissions: list[Admission] = [
            Admission(
                sub_id=item.subscription.sub_id,
                node_id=item.node_id,
                subscription=item.subscription,
                admit=None,
                retire=None,
            )
            for item in source.workload[:prefix]
        ]
        for i, edge in enumerate(source.edges):
            item = source.workload[prefix + i]
            admissions.append(
                Admission(
                    sub_id=item.subscription.sub_id,
                    node_id=item.node_id,
                    subscription=item.subscription,
                    admit=REPLAY_START + edge.admit,
                    retire=(
                        REPLAY_START + edge.retire
                        if edge.retire is not None
                        else None
                    ),
                )
            )
        admissions.extend(self._explicit_admissions(deployment))
        seen: set[str] = set()
        for admission in admissions:
            if admission.sub_id in seen:
                raise ValueError(
                    f"duplicate query id {admission.sub_id!r} in program"
                )
            seen.add(admission.sub_id)
        plans: Mapping[str, object] | None = None
        if self.placement == "compiled":
            # Function-local upward import — the sanctioned lazy idiom
            # (placement sits above workload in the layer contract).
            from ..placement import compile_placement

            plans = compile_placement(deployment, admissions, source.events)
        return CompiledProgram(
            deployment=deployment,
            events=source.events,
            churn=source.churn,
            admissions=tuple(admissions),
            span=source.replay.span,
            faults=self.faults,
            reliability=self.reliability,
            plans=plans,
        )

    def _explicit_admissions(self, deployment: Deployment) -> list["Admission"]:
        from ..api.query import Query  # local: workload stays api-optional

        out: list[Admission] = []
        for i, pq in enumerate(self.queries):
            if isinstance(pq.query, Query):
                sub_id = pq.query.name or f"pq{i:04d}"
                subscription = pq.query.build(deployment, sub_id=sub_id)
            else:
                subscription = pq.query
            node_id = pq.at
            if node_id is None:
                users = deployment.user_nodes
                if not users:
                    raise ValueError("deployment has no user nodes")
                node_id = users[0]
            out.append(
                Admission(
                    sub_id=subscription.sub_id,
                    node_id=node_id,
                    subscription=subscription,
                    admit=(
                        None
                        if pq.admit <= 0
                        else REPLAY_START + pq.admit
                    ),
                    retire=(
                        REPLAY_START + pq.retire
                        if pq.retire is not None
                        else None
                    ),
                )
            )
        return out


def deployment_fingerprint(deployment: Deployment) -> tuple:
    """What identifies a deployment for source-reuse purposes: the seed
    alone is not enough (every topology factory accepts the same seed
    space), so the node set and the sensor placements go in too."""
    return (
        deployment.seed,
        tuple(sorted(deployment.graph)),
        tuple(sorted(s.sensor_id for s in deployment.sensors)),
    )


@dataclass(frozen=True)
class ProgramSource:
    """The expensive, prefix-independent middle stage of compilation:
    synthesized replay (events already on the simulation clock), churn
    schedule, subscription pool and lifecycle draws."""

    program: WorkloadProgram
    deployment_fingerprint: tuple
    replay: Replay
    events: tuple[SimpleEvent, ...]
    churn: ChurnSchedule | None
    workload: tuple[PlacedSubscription, ...]
    edges: tuple[LifecycleEdge, ...]

    def compatible_with(
        self, program: WorkloadProgram, deployment: Deployment
    ) -> bool:
        """Whether this source can compile ``program`` (prefix aside).

        The fault plan and reliability config are neutralised too: they
        shape execution, never the generated replay/pool/edges, so one
        source serves a whole loss sweep.
        """
        neutral = dict(
            static_prefix=None,
            faults=None,
            reliability=None,
            placement="paper",
        )
        return (
            replace(self.program, **neutral) == replace(program, **neutral)
            and self.deployment_fingerprint == deployment_fingerprint(deployment)
        )


# ---------------------------------------------------------------------------
# the compiled timeline
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Admission:
    """One resolved query admission on the simulation clock.

    ``admit=None`` marks a settled *setup* registration (submitted
    sequentially before the replay, the paper's protocol); a float is
    a scheduled mid-replay admission.  ``retire`` is the scheduled
    cancellation instant, if any.
    """

    sub_id: str
    node_id: str
    subscription: Subscription
    admit: float | None
    retire: float | None


@dataclass(frozen=True)
class CompiledProgram:
    """A program resolved against one deployment: every timeline merged.

    The compiled form is what one experiment point runs and what the
    oracle fences from — the admissions' scheduled times *are* the
    activation/cancellation fences, identical for every approach (the
    same role the fixed :data:`REPLAY_START` plays for event timestamps).
    """

    deployment: Deployment
    events: tuple[SimpleEvent, ...]
    churn: ChurnSchedule | None
    admissions: tuple[Admission, ...]
    span: float
    faults: FaultPlan | None = None
    reliability: ReliabilityConfig | None = None
    plans: Mapping[str, object] | None = None

    def plan_for(self, sub_id: str) -> object | None:
        """The compiled :class:`~repro.placement.plan.PlacementPlan` for
        a query, or ``None`` (paper placement / no plan computed) — the
        null plan registers exactly as every program always has."""
        if self.plans is None:
            return None
        return self.plans.get(sub_id)

    @property
    def setup(self) -> tuple[Admission, ...]:
        """Settled pre-replay registrations, in registration order."""
        return tuple(a for a in self.admissions if a.admit is None)

    @property
    def scheduled(self) -> tuple[Admission, ...]:
        """Mid-replay admissions, in (admit, sub_id) order."""
        return tuple(
            sorted(
                (a for a in self.admissions if a.admit is not None),
                key=lambda a: (a.admit, a.sub_id),
            )
        )

    @property
    def activations(self) -> dict[str, float]:
        """Oracle activation fences (scheduled admissions only: setup
        registrations predate every replayed event, so their fence is
        vacuous and deliberately omitted — bit-identity with the
        historical fixed-prefix truth)."""
        return {
            a.sub_id: a.admit for a in self.admissions if a.admit is not None
        }

    @property
    def cancellations(self) -> dict[str, float]:
        """Oracle cancellation fences — the scheduled retire instants."""
        return {
            a.sub_id: a.retire for a in self.admissions if a.retire is not None
        }

    @property
    def fences(self) -> Fences:
        """What no approach could observe, from the *program's scheduled*
        times: the churn schedule, the fault plan's outages and every
        admission's lifetime (see :mod:`repro.metrics.fences`)."""
        return Fences.build(
            self.deployment,
            churn=self.churn,
            outages=self.faults.outages if self.faults is not None else (),
            offset=REPLAY_START,
            activations=self.activations,
            cancellations=self.cancellations,
        )

    def truth(self) -> dict[str, "SubscriptionTruth"]:
        """Ground truth for every admission, fenced by :attr:`fences`.

        Shared by all approaches of one point: the fences never come
        from any one session's observed clock (which differs per
        approach during registration).
        """
        from ..metrics.oracle import compute_truth  # local: avoid cycle

        return compute_truth(
            [a.subscription for a in self.admissions],
            self.deployment,
            self.events,
            fences=self.fences,
        )


# ---------------------------------------------------------------------------
# execution through the Session facade
# ---------------------------------------------------------------------------
@dataclass
class ProgramExecution:
    """One program driven end to end through a :class:`Session`.

    The three snapshots bracket the historical measurement phases
    (advertisements / settled setup registrations / replay+lifecycle),
    so the runner's traffic attribution is a pure function of them.
    """

    session: "Session"
    after_advertisements: "TrafficSnapshot"
    after_setup: "TrafficSnapshot"
    final: "TrafficSnapshot"
    handles: dict[str, "QueryHandle"]
    admitted: int
    retired: int


def execute_program(
    compiled: CompiledProgram,
    approach: "Approach | str",
) -> ProgramExecution:
    """Run one compiled program on one approach, via the Session facade.

    Phases (identical to the historical runner, now facade-shaped):

    1. ``Session.create`` populates the approach's nodes, attaches every
       sensor and floods advertisements to quiescence;
    2. setup admissions register sequentially, settled after each — the
       paper's deterministic registration order;
    3. the replay is ingested, churn transitions and lifecycle edges are
       scheduled (both at agenda priority 1: a reading stamped at the
       exact transition instant is published first, the tie-break the
       oracle fences assume), and the session drains to quiescence.

    Mid-replay admissions and retirements run unsettled (``settle=False``
    — they fire inside the event loop), so their traffic is accounted on
    the shared meter (`teardown_units` splits the unsubscribe channel
    out), not per handle.
    """
    from ..api.session import Session  # local: workload stays api-optional

    session = Session.create(
        approach=approach,
        deployment=compiled.deployment,
        faults=compiled.faults,
        reliability=compiled.reliability,
    )
    after_ads = session.traffic.snapshot()
    # Before any reading: a window admitted mid-replay needs events
    # that predate its admission (the matcher backfill, which the
    # oracle counts).
    if compiled.admissions:
        session.network.widen_validity(
            max(a.subscription.delta_t for a in compiled.admissions)
        )

    handles: dict[str, "QueryHandle"] = {}
    for admission in compiled.setup:
        handles[admission.sub_id] = session.submit(
            admission.subscription,
            at=admission.node_id,
            plan=compiled.plan_for(admission.sub_id),
        )
    after_setup = session.traffic.snapshot()
    if session.now >= REPLAY_START:
        raise RuntimeError(
            f"setup phase ran past the replay start t={REPLAY_START:g}; "
            "admit some of the setup queries mid-replay instead"
        )

    session.ingest_events(compiled.events)
    if compiled.churn is not None:
        session.network.schedule_churn(compiled.churn)
    if compiled.faults is not None and compiled.faults.outages:
        session.network.schedule_outages(
            compiled.faults.outages, offset=REPLAY_START
        )

    def periodic(interval: float) -> list[tuple[float, int]]:
        """``(instant, round number)`` every ``interval`` across the span."""
        rounds = []
        k = 1
        while k * interval <= compiled.span:
            rounds.append((REPLAY_START + k * interval, k))
            k += 1
        return rounds

    if compiled.reliability is not None:
        # Soft-state refresh rounds across the replay span: a finite
        # timeline (never self-rescheduling), so quiescence survives.
        rounds = periodic(compiled.reliability.refresh_interval)
        if rounds:
            session.network.schedule_refresh(rounds)

    counters = {"admitted": 0, "retired": 0}

    def _admit(admission: Admission) -> None:
        handles[admission.sub_id] = session.submit(
            admission.subscription,
            at=admission.node_id,
            settle=False,
            plan=compiled.plan_for(admission.sub_id),
        )
        counters["admitted"] += 1

    def _retire(admission: Admission) -> None:
        handle = handles.get(admission.sub_id)
        if handle is not None and handle.cancel(settle=False):
            counters["retired"] += 1

    edges: list[tuple[float, int, Admission]] = [
        (a.admit, 0, a) for a in compiled.scheduled
    ]
    edges.extend(
        (a.retire, 1, a) for a in compiled.admissions if a.retire is not None
    )
    edges.sort(key=lambda e: (e[0], e[1], e[2].sub_id))
    session.network.sim.schedule_timeline(
        (
            (time, (lambda a=adm: _admit(a)) if kind == 0 else (lambda a=adm: _retire(a)))
            for time, kind, adm in edges
        ),
        priority=1,
    )

    session.drain()
    return ProgramExecution(
        session=session,
        after_advertisements=after_ads,
        after_setup=after_setup,
        final=session.traffic.snapshot(),
        handles=handles,
        admitted=counters["admitted"],
        retired=counters["retired"],
    )
