"""The live query session — the facade over deployment, network,
simulator and approach.

One :class:`Session` owns one simulated run end to end::

    session = Session.create(approach="fsf", nodes=24, groups=3, seed=11)
    handle = session.submit(
        Query().where("s0001", -5.0, 5.0).where("s0002", -10.0, 10.0).within(5.0)
    )
    session.ingest("s0001", 1.5)
    session.ingest("s0002", -3.0, timestamp=session.now + 1.5)
    session.drain()
    for match in handle.matches():
        print(match)
    handle.cancel()

Ingestion is *push-based*: external sources call :meth:`Session.ingest`
with readings and the session turns them into simple events on the
right node — no agenda lambdas, no manual event construction.  Time is
driven explicitly (:meth:`advance` / :meth:`run_until` / :meth:`drain`),
so a session composes with replay harnesses and interactive use alike.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..metrics.fences import Fences
from ..model import checks
from ..model.events import SimpleEvent
from ..model.subscriptions import Subscription
from ..network.network import Network
from ..network.topology import Deployment, build_deployment
from ..protocols.base import Approach
from ..sim import Simulator
from .handle import QueryHandle
from .query import Query, QueryError


class Session:
    """A live run of one approach on one deployment.

    Build one with :meth:`create` (the common path — it assembles
    deployment, simulator, network and nodes, attaches and advertises
    every sensor) or wrap pre-built objects with the constructor for
    advanced setups (custom topologies, mid-run adoption).
    """

    def __init__(
        self,
        network: Network,
        deployment: Deployment,
        approach: Approach | None = None,
    ) -> None:
        self.network = network
        self.deployment = deployment
        self.approach = approach
        self._placements = {p.sensor_id: p for p in deployment.sensors}
        self._ingest_seq: dict[str, int] = {}
        self._query_counter = 0
        self.handles: dict[str, QueryHandle] = {}
        self.activations: dict[str, float] = {}
        self.cancellations: dict[str, float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        approach: str | Approach = "fsf",
        nodes: int = 24,
        groups: int = 3,
        seed: int | None = None,
        deployment: Deployment | None = None,
        faults=None,
        reliability=None,
    ) -> "Session":
        """Assemble a ready-to-use session.

        ``approach`` is a registry key (``"fsf"``, ``"naive"``,
        ``"operator_placement"``, ``"multijoin"``, ``"centralized"``) or
        an :class:`Approach` instance; ``deployment`` overrides the
        generated topology.
        ``seed`` defaults to the deployment's own seed when one is
        passed (so a pre-built deployment reproduces the experiment
        runner's simulator streams), else 0.  Sensors are attached and
        their advertisements flooded before the session is returned.
        ``faults``/``reliability`` switch the network onto the seeded
        unreliable transport (:mod:`repro.network.faults`) and the
        opt-in ack/refresh layer (:mod:`repro.network.reliability`).
        """
        from ..protocols.registry import all_approaches  # local: avoid cycle

        if isinstance(approach, str):
            approaches = all_approaches()
            if approach not in approaches:
                raise ValueError(
                    f"unknown approach {approach!r}; "
                    f"known: {sorted(approaches)}"
                )
            resolved = approaches[approach]
        else:
            resolved = approach
        if seed is None:
            seed = deployment.seed if deployment is not None else 0
        if deployment is None:
            deployment = build_deployment(nodes, groups, seed=seed)
        network = Network(
            deployment,
            Simulator(seed=seed),
            faults=faults,
            reliability=reliability,
        )
        resolved.populate(network)
        network.attach_all_sensors()
        network.run_to_quiescence()
        return cls(network, deployment, resolved)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time of the underlying simulator."""
        return self.network.sim.now

    def advance(self, dt: float) -> float:
        """Run the simulation ``dt`` time units forward; returns ``now``."""
        checks.non_negative(self, dt=dt)
        return self.network.sim.run(until=self.now + dt)

    def run_until(self, t: float) -> float:
        """Run the simulation up to absolute time ``t``; returns ``now``."""
        checks.finite(self, t=t)
        if t < self.now:
            raise ValueError(f"cannot run to {t:g}; now is {self.now:g}")
        return self.network.sim.run(until=t)

    def drain(self) -> float:
        """Run to quiescence (every scheduled message processed)."""
        return self.network.run_to_quiescence()

    # ------------------------------------------------------------------
    # push-based ingestion
    # ------------------------------------------------------------------
    def ingest(
        self,
        sensor_id: str,
        value: float,
        timestamp: float | None = None,
        seq: int | None = None,
    ) -> SimpleEvent:
        """Push one sensor reading into the network.

        The reading becomes a :class:`SimpleEvent` of the sensor's
        attribute/location, published at the sensor's hosting node —
        immediately when ``timestamp`` is now or omitted or in the past
        (late arrivals are the store's business: within the validity
        window they still correlate), scheduled on the agenda when it
        lies in the future.  ``seq`` defaults to a per-sensor counter;
        pass explicit sequence numbers when mixing pushed readings with
        a pre-materialised replay of the same sensors.  Returns the
        event (its ``key`` identifies it in delivered matches).
        """
        placement = self._placements.get(sensor_id)
        if placement is None:
            raise KeyError(f"unknown sensor {sensor_id!r}")
        if seq is None:
            seq = self._ingest_seq.get(sensor_id, 0)
            self._ingest_seq[sensor_id] = seq + 1
        when = self.now if timestamp is None else timestamp
        event = SimpleEvent(
            sensor_id,
            placement.attribute.name,
            placement.location,
            value,
            timestamp=when,
            seq=seq,
        )
        if when <= self.now:
            self.network.publish(placement.node_id, event)
        else:
            self.network.sim.at(
                when,
                lambda: self.network.publish(placement.node_id, event),
            )
        return event

    def ingest_events(self, events: Iterable[SimpleEvent]) -> int:
        """Schedule pre-built events (replay adoption); returns the count.

        Events must carry timestamps at or after ``now``; they publish
        at their own timestamps on their sensors' hosting nodes.
        """
        entries = []
        for event in events:
            placement = self._placements.get(event.sensor_id)
            if placement is None:
                raise KeyError(f"unknown sensor {event.sensor_id!r}")
            entries.append(
                (
                    event.timestamp,
                    lambda e=event, p=placement: self.network.publish(p.node_id, e),
                )
            )
        self.network.sim.schedule_timeline(entries)
        return len(entries)

    # ------------------------------------------------------------------
    # subscription lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query | Subscription,
        at: str | None = None,
        settle: bool = True,
        plan: object | None = None,
    ) -> QueryHandle:
        """Register a query and return its lifecycle handle.

        ``query`` is a fluent :class:`Query` (compiled against this
        session's deployment) or an already-built model subscription.
        ``at`` names the user's node (default: the deployment's first
        user/relay node).  With ``settle`` (the default) any in-flight
        activity is drained first and the simulator then runs to
        quiescence so the operator placement completes before
        returning — the paper's sequential registration protocol — and
        the handle's ``registration_units`` are attributable to this
        registration alone; pass ``settle=False`` to flood several
        registrations concurrently (their units are then 0: concurrent
        floods cannot be told apart on the shared meter).

        Re-entrancy: submitting from *inside* the event loop — a
        delivery callback, a scheduled action, mid-``drain`` — cannot
        settle (the simulator's ``run`` is not reentrant) and raises
        :class:`QueryError` up front; ``settle=False`` is safe there
        and floods the registration asynchronously.

        ``plan`` routes the query's operator pieces along a compiled
        :class:`~repro.placement.plan.PlacementPlan` instead of the
        approach's heuristic (see ``WorkloadProgram(placement=
        "compiled")``); ``None`` — the default — is the historical
        registration, bit-identical to pre-plan sessions.
        """
        if settle and self.network.sim.running:
            raise QueryError(
                "cannot submit with settle=True from inside the event loop "
                "(a delivery callback or mid-drain): the simulator cannot "
                "re-enter run(); pass settle=False to flood the "
                "registration asynchronously"
            )
        if isinstance(query, Query):
            sub_id = query.name
            if sub_id is None:
                sub_id = self._fresh_query_id()
            subscription = query.build(self.deployment, sub_id=sub_id)
        else:
            subscription = query
        previous = self.handles.get(subscription.sub_id)
        if previous is not None and previous.active:
            raise QueryError(
                f"query id {subscription.sub_id!r} is already live in this "
                "session; cancel it first or use a fresh name"
            )
        # Validate everything before touching session state: a failed
        # submit must leave the previous incarnation intact.
        node_id = at if at is not None else self.default_user_node
        if node_id not in self.network.nodes:
            raise KeyError(f"unknown node {node_id!r}")
        self.network.check_plan(node_id, plan)
        if settle:
            self.network.run_to_quiescence()
        if previous is not None:
            # A reused id is a fresh incarnation: the old incarnation's
            # cancellation fence and delivered log are dropped, and the
            # activation instant recorded below fences the oracle's
            # truth to instances *triggered* from now on.  Like any
            # newly placed query, the incarnation may still correlate
            # with earlier events that remain valid in the stores — the
            # matcher backfill — and the oracle counts those members.
            self.cancellations.pop(subscription.sub_id, None)
            self.network.delivery.reset(subscription.sub_id)
        self.activations[subscription.sub_id] = self.now
        meter = self.network.meter
        before = meter.subscription_units
        dropped_before = len(self.network.dropped_subscriptions)
        self.network.register_subscription(node_id, subscription, plan=plan)
        if settle:
            self.network.run_to_quiescence()
        accepted = len(self.network.dropped_subscriptions) == dropped_before
        units = meter.subscription_units - before if settle else 0
        handle = QueryHandle(self, subscription, node_id, units, accepted)
        self.handles[subscription.sub_id] = handle
        return handle

    def _fresh_query_id(self) -> str:
        """The next auto-generated id not colliding with a known one."""
        while True:
            sub_id = f"q{self._query_counter:05d}"
            self._query_counter += 1
            if sub_id not in self.handles:
                return sub_id

    @property
    def default_user_node(self) -> str:
        """Where queries land when ``submit`` gets no ``at``."""
        users = self.deployment.user_nodes
        if not users:
            raise QueryError("deployment has no user nodes")
        return users[0]

    def _cancel(self, handle: QueryHandle, settle: bool) -> tuple[bool, int]:
        """Backend of :meth:`QueryHandle.cancel`.

        With ``settle``, in-flight activity is drained first so the
        recorded ``cancellation_units`` are attributable to this
        teardown alone (pending deliveries land before the cancel takes
        effect, which is also what the oracle fence assumes).  Like
        :meth:`submit`, settling from inside the event loop is
        impossible and raises :class:`QueryError`.
        """
        if settle and self.network.sim.running:
            raise QueryError(
                "cannot cancel with settle=True from inside the event loop "
                "(a delivery callback or mid-drain): the simulator cannot "
                "re-enter run(); pass settle=False to flood the teardown "
                "asynchronously"
            )
        if settle:
            self.network.run_to_quiescence()
        issued_at = self.now
        meter = self.network.meter
        before = meter.subscription_units
        cancelled = self.network.cancel_subscription(
            handle.node_id, handle.sub_id
        )
        if not cancelled:
            return False, 0
        if settle:
            self.network.run_to_quiescence()
        self.cancellations[handle.sub_id] = issued_at
        units = meter.subscription_units - before if settle else 0
        return True, units

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def traffic(self):
        """The run's traffic meter (see :class:`TrafficMeter`)."""
        return self.network.meter

    @property
    def delivery(self):
        """The run's delivery log."""
        return self.network.delivery

    def active_queries(self) -> list[str]:
        """Ids of the queries currently live."""
        return sorted(
            sub_id for sub_id, handle in self.handles.items() if handle.active
        )

    def truth(
        self,
        events: Iterable[SimpleEvent],
        churn=None,
    ) -> Mapping[str, object]:
        """Oracle ground truth for this session's queries over ``events``.

        Each query's truth is fenced to its lifetime — from its
        ``submit()`` instant to its ``cancel()`` instant, and ``churn``
        fences departed sensors (see :mod:`repro.metrics.fences`) — so
        resubmitted ids never inherit a previous incarnation's truth.
        """
        from ..metrics.oracle import compute_truth  # local: avoid cycle

        return compute_truth(
            [h.subscription for h in self.handles.values()],
            self.deployment,
            list(events),
            fences=Fences.build(
                churn=churn,
                activations=self.activations,
                cancellations=self.cancellations,
            ),
        )
