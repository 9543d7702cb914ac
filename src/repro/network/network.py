"""The simulated overlay network tying nodes, links and the clock together.

One :class:`Network` instance hosts one approach's node set on one
deployment.  It owns the traffic meter (what the experiments read), the
delivery log (what the recall metric reads) and the simulator; node
implementations only ever call :meth:`send` / :meth:`unicast` and the
injection helpers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from ..model import checks
from ..model.events import SimpleEvent
from ..model.subscriptions import PAPER_DELTA_T, Subscription
from ..sim import AgendaBudgetExceeded, SimulationError, Simulator
from .delivery import DeliveryLog
from .faults import FaultPlan
from .links import TrafficMeter
from .messages import EventMessage, Message, OperatorMessage
from .reliability import ReliabilityConfig, Transport
from ..sketches import SketchConfig, SketchLane
from .routing import RoutingTable, graph_center
from .topology import Deployment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

UNICAST_ORIGIN = "__unicast__"
"""Origin marker for messages that arrive via multi-hop unicast."""


class LivelockError(SimulationError):
    """:meth:`Network.run_to_quiescence` exhausted its event budget.

    Carries a diagnosis: the hottest pending agenda action kinds and the
    per-link traffic leaders at abort time — enough to name a
    retransmit/refresh feedback loop without re-running under a
    debugger.
    """

    def __init__(
        self,
        max_events: int,
        pending_actions: list[tuple[str, int]],
        busiest_links: list[tuple[tuple[str, str], int]],
    ) -> None:
        actions = (
            ", ".join(f"{name} x{count}" for name, count in pending_actions)
            or "none"
        )
        links = (
            ", ".join(
                f"{src}->{dst} ({units} units)"
                for (src, dst), units in busiest_links
            )
            or "none"
        )
        super().__init__(
            f"no quiescence within max_events={max_events}; "
            f"hottest pending actions: {actions}; "
            f"busiest links: {links}"
        )
        self.pending_actions = pending_actions
        self.busiest_links = busiest_links


class _DeliveryFlush:
    """One agenda entry delivering a batch of same-instant messages.

    Items are replayed in append order — identical to the order the
    individual agenda entries would have fired.
    """

    __slots__ = ("network", "items")

    def __init__(self, network: "Network", items: list) -> None:
        self.network = network
        self.items = items

    def __call__(self) -> None:
        network = self.network
        batch = network._batch
        if batch is not None and batch[2] is self.items:
            # Closed once it fires: with zero latency a send can still
            # target this very instant, and must get an entry of its own.
            network._batch = None
        nodes = network.nodes
        for dst, message, origin in self.items:
            nodes[dst].receive(message, origin)


class Network:
    """Message fabric + bookkeeping for one simulated run."""

    def __init__(
        self,
        deployment: Deployment,
        sim: Simulator | None = None,
        latency: float = 0.05,
        faults: FaultPlan | None = None,
        reliability: ReliabilityConfig | None = None,
        sketch: "SketchConfig | None" = None,
    ) -> None:
        if sketch is not None and (
            faults is not None or reliability is not None
        ):
            raise ValueError(
                "the approximate lane cannot ride the unreliable "
                "transport: digest pushes assume lossless in-order "
                "delivery (a lost push would silently widen the error "
                "past the certified bound)"
            )
        self.deployment = deployment
        self.sim = sim if sim is not None else Simulator(seed=deployment.seed)
        self.latency = latency
        checks.non_negative(self, "latency")
        # Event validity (Section IV-B): longer than the widest admitted
        # delta_t plus the worst-case transit, so correlating events
        # never expire early.  It starts at the paper's window and only
        # grows, with each registration (see register_subscription).
        self._transit = deployment.diameter() * latency
        self.validity = self._validity_for(PAPER_DELTA_T)
        self.meter = TrafficMeter()
        self.delivery = DeliveryLog()
        self.nodes: dict[str, "Node"] = {}
        self._routing: RoutingTable | None = None
        self._center: str | None = None
        self.dropped_subscriptions: list[str] = []
        # Adjacency snapshot as sets: send() validates neighbourhood
        # once per message on the hot path.  The deployment graph is
        # immutable for a run.
        self._adjacency: dict[str, set[str]] = {
            node: set(neighbours)
            for node, neighbours in self.deployment.graph.items()
        }
        self._sorted_neighbors: dict[str, list[str]] = {
            node: sorted(adjacent) for node, adjacent in self._adjacency.items()
        }
        # Fault lane: only built when something can actually go wrong.
        # With no (truthy) plan and no reliability layer, send/unicast
        # keep the historical inline path — byte-identical runs.
        self.faults = faults if faults is not None else FaultPlan.none()
        if faults is not None:
            self.faults.validate_against(deployment)
        self.reliability = reliability
        self.down: set[str] = set()
        self.transport: Transport | None = (
            Transport(self, self.faults, reliability)
            if (bool(self.faults) or reliability is not None)
            else None
        )
        # Approximate answer lane: only built when a sketch config is
        # given.  Without one ``sketches`` stays None and every hook in
        # the node/event path is fenced off — byte-identical runs, same
        # null-fence pattern as the transport above.
        self.sketches: SketchLane | None = (
            SketchLane(sketch) if sketch is not None else None
        )
        # Open delivery batch for the plain (fault-free) send path:
        # ``(arrival_time, agenda_sequence, items)``.  See ``send``.
        self._batch: tuple[float, int, list] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: "Node") -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        if node.node_id not in self.deployment.graph:
            raise ValueError(f"{node.node_id!r} not in the deployment graph")
        if self.sketches is not None and not node.hosts_sketches:
            raise ValueError(
                f"{type(node).__name__} does not support the approximate "
                "answer lane (it has no per-subscription event forwarding "
                "to trade for digest pushes)"
            )
        self.nodes[node.node_id] = node

    def populate(self, node_factory) -> None:
        """Create one node per graph vertex using ``node_factory(node_id, net)``."""
        for node_id in sorted(self.deployment.graph):
            self.add_node(node_factory(node_id, self))

    def neighbors(self, node_id: str) -> list[str]:
        return self._sorted_neighbors[node_id]

    # ------------------------------------------------------------------
    # routing (centralized baseline only)
    # ------------------------------------------------------------------
    @property
    def routing(self) -> RoutingTable:
        if self._routing is None:
            self._routing = RoutingTable(self.deployment.graph)
        return self._routing

    @property
    def center(self) -> str:
        if self._center is None:
            self._center = graph_center(self.routing)
        return self._center

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Message) -> None:
        """One-hop transfer to a neighbour; charged per link.

        The single interception point of the fault lane: with a fault
        plan or reliability layer active, delivery is delegated to the
        :class:`~repro.network.reliability.Transport`, which may drop,
        delay or retransmit it.
        """
        if dst not in self._adjacency[src]:
            raise ValueError(f"{src!r} and {dst!r} are not neighbours")
        if self.transport is not None:
            self.transport.send(src, dst, message)
            return
        self.meter.record((src, dst), message)
        # Consecutive sends targeting the same arrival instant share one
        # agenda entry.  A batch stays open only while the simulator's
        # scheduling sequence is unchanged — the batched sends are then
        # provably consecutive in FIFO order, so no other same-instant
        # action can sort between them and delivery order is exactly
        # the order one agenda entry per send would give.
        sim = self.sim
        when = sim.now + self.latency
        batch = self._batch
        if (
            batch is not None
            and batch[0] == when
            and batch[1] == sim.sequence
        ):
            batch[2].append((dst, message, src))
            return
        items: list = [(dst, message, src)]
        sim.at(when, _DeliveryFlush(self, items))
        self._batch = (when, sim.sequence, items)

    def unicast(self, src: str, dst: str, message: Message) -> None:
        """Multi-hop transfer along the unique path; charged per hop.

        Used by the centralized baseline.  Every hop bills its own link
        (units x hops in total, one message); delivery happens once at
        the destination after the path's cumulative latency —
        intermediate nodes only relay, they never inspect centralized
        traffic.  Under a fault plan each hop draws its own loss/delay,
        so longer paths are proportionally more fragile — the
        centralized baseline pays for its star.
        """
        if src == dst:
            self.nodes[dst].receive(message, UNICAST_ORIGIN)
            return
        path = self.routing.path(src, dst)
        links = tuple(zip(path, path[1:]))
        if self.transport is not None:
            self.transport.unicast(src, dst, UNICAST_ORIGIN, message, links)
            return
        self.meter.record_path(links, message)
        self.sim.schedule(
            self.latency * len(links),
            lambda: self.nodes[dst].receive(message, UNICAST_ORIGIN),
        )

    # ------------------------------------------------------------------
    # workload injection
    # ------------------------------------------------------------------
    def attach_sensor(self, node_id: str, placement) -> None:
        """Install a sensor and advertise it (Algorithm 1, local branch)."""
        self.nodes[node_id].attach_sensor(placement.advertisement())

    def attach_all_sensors(self) -> None:
        for placement in self.deployment.sensors:
            self.attach_sensor(placement.node_id, placement)

    def detach_sensor(self, node_id: str, sensor_id: str) -> None:
        """Churn leave: retract a sensor from its hosting node."""
        self.nodes[node_id].detach_sensor(sensor_id)

    def schedule_churn(self, schedule) -> int:
        """Schedule a churn schedule's join/leave transitions.

        ``schedule`` is a :class:`~repro.workload.sensorscope.ChurnSchedule`
        (duck-typed via ``transitions()`` to keep the network layer free
        of workload imports).  Transition times must already be in this
        simulation's clock (the experiment runner shifts them together
        with the replayed events).  Lifecycle edges run at agenda
        priority 1: a reading stamped at the exact departure instant is
        published before its node departs, a deterministic tie-break.
        Returns the number of transitions scheduled.
        """
        node_of_sensor = {
            s.sensor_id: s for s in self.deployment.sensors
        }
        entries = []
        for time, sensor_id, kind in schedule.transitions():
            placement = node_of_sensor[sensor_id]
            if kind == "leave":
                entries.append(
                    (
                        time,
                        lambda p=placement: self.detach_sensor(
                            p.node_id, p.sensor_id
                        ),
                    )
                )
            else:
                entries.append(
                    (
                        time,
                        lambda p=placement: self.attach_sensor(p.node_id, p),
                    )
                )
        self.sim.schedule_timeline(entries, priority=1)
        return len(entries)

    def register_subscription(
        self,
        node_id: str,
        subscription: Subscription,
        plan: object | None = None,
    ) -> None:
        """Register a user subscription at ``node_id``.

        ``plan`` (an opaque compiled placement plan exposing
        ``next_hops``; see ``repro.placement``) routes the operator
        pieces explicitly instead of the approach's heuristic.  With
        ``plan=None`` the call is exactly the historical registration —
        the null-plan fence the placement tests machine-check.  The
        subscription's window widens the event validity if it needs to.
        """
        self.check_plan(node_id, plan)
        self.widen_validity(subscription.delta_t)
        self.delivery.register(subscription.sub_id)
        self.nodes[node_id].subscribe(subscription, plan)

    def widen_validity(self, delta_t: float) -> None:
        """Raise the event validity of the network and of every node's
        store to what a ``delta_t`` window needs; it never shrinks.  A
        store's horizon never moves back, so events it already dropped
        stay dropped: a program widens once, before its replay, from
        the widest window it will admit."""
        validity = self._validity_for(delta_t)
        if validity > self.validity:
            self.validity = validity
            for node in self.nodes.values():
                node.store.validity = validity

    def _validity_for(self, delta_t: float) -> float:
        return 4 * (delta_t + self._transit + 1.0)

    def check_plan(self, node_id: str, plan: object | None) -> None:
        """Refuse a placement plan the node class or a lane of this
        network cannot execute — before anything is written, so a
        refused registration leaves no trace (``Session.submit`` calls
        it ahead of its own bookkeeping)."""
        if plan is None:
            return
        node = self.nodes[node_id]
        if not node.executes_plans:
            raise ValueError(
                f"{type(node).__name__} does not execute compiled "
                "placement plans"
            )
        if self.sketches is not None:
            raise ValueError(
                "compiled placement plans cannot be combined with the "
                "approximate answer lane: eligible subscriptions bypass "
                "operator placement entirely"
            )

    def cancel_subscription(self, node_id: str, sub_id: str) -> bool:
        """Cancel a subscription previously registered at ``node_id``.

        Starts the reverse-path operator removal (see
        :meth:`repro.network.node.Node.unsubscribe`); run the simulator
        to quiescence to let the teardown reach every node that stored a
        fragment.  Returns False when the subscription is not registered
        at that node (dropped for absent sources, or already cancelled).
        """
        return self.nodes[node_id].unsubscribe(sub_id)

    def publish(self, node_id: str, event: SimpleEvent) -> None:
        """A locally attached sensor produced a reading."""
        if self.down and node_id in self.down:
            # A crashed broker's sensors keep sampling, but the readings
            # die at the host — the publications the oracle fences out.
            return
        self.nodes[node_id].publish(event)

    # ------------------------------------------------------------------
    # broker outages (correlated failure domains)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: str) -> None:
        """Take a broker down: volatile store/matcher state is lost.

        In-flight unacked transfers it originated are abandoned (its
        send state is volatile too); messages addressed to it while down
        are dropped by the transport at delivery time.
        """
        if node_id not in self.nodes:
            raise ValueError(f"unknown node {node_id!r}")
        if node_id in self.down:
            return
        self.down.add(node_id)
        self.nodes[node_id].crash()
        if self.transport is not None:
            self.transport.abandon_from(node_id)

    def recover_node(self, node_id: str) -> None:
        """Bring a crashed broker back: it re-enters via the re-flood
        path (local advertisements flood again, exactly like a churn
        re-join); remote state returns with the next refresh round."""
        if node_id not in self.down:
            return
        self.down.discard(node_id)
        self.nodes[node_id].recover()

    def schedule_outages(self, outages, offset: float = 0.0) -> int:
        """Schedule correlated crash/recover edges from outage windows.

        ``outages`` is an iterable of
        :class:`~repro.network.faults.OutageWindow`; ``offset`` shifts
        their program-clock times into this simulation's clock.  Edges
        run at agenda priority 1, the churn tie-break: a publication
        stamped at the exact crash instant still goes out first.
        Returns the number of edges scheduled.
        """
        entries = []
        for window in outages:
            for n in sorted(window.domain):
                entries.append((offset + window.start, lambda n=n: self.crash_node(n)))
                if math.isfinite(window.end):  # an infinite end never recovers
                    entries.append(
                        (offset + window.end, lambda n=n: self.recover_node(n))
                    )
        self.sim.schedule_timeline(entries, priority=1)
        return len(entries)

    def schedule_refresh(self, times: Iterable[tuple[float, int]]) -> int:
        """Schedule soft-state refresh rounds at ``(absolute time, epoch)``.

        Each round asks every live broker (in sorted order, one agenda
        entry per broker so draws interleave deterministically) to
        re-flood its local advertisements, re-offer forwarded operators
        and expire remote soft state that missed ``expiry_rounds``
        consecutive rounds.  Requires the reliability layer; a finite
        timeline, never self-rescheduling, so quiescence still exists.
        """
        if self.reliability is None:
            raise ValueError("refresh requires a reliability config")
        expiry_rounds = self.reliability.expiry_rounds
        entries = []
        for time, epoch in times:
            for node_id in sorted(self.nodes):
                entries.append(
                    (
                        time,
                        lambda n=node_id, k=epoch: self._refresh_node(
                            n, k, expiry_rounds
                        ),
                    )
                )
        self.sim.schedule_timeline(entries, priority=1)
        return len(entries)

    def _refresh_node(self, node_id: str, epoch: int, expiry_rounds: int) -> None:
        if node_id in self.down:
            return
        self.nodes[node_id].refresh_soft_state(epoch, expiry_rounds)

    def schedule_sketch_rounds(
        self, times: Iterable[tuple[float, int]]
    ) -> int:
        """Schedule digest push rounds at ``(absolute time, round no)``.

        Each round ticks every broker (sorted order, one agenda entry
        per broker, priority 1 — so a reading stamped at the round
        instant is folded in before the round pushes, the same
        tie-break churn and refresh use): leaves of every push tree
        send their merged local summaries upstream, interior brokers
        then merge and relay as the pushes arrive.  A finite timeline,
        never self-rescheduling, so quiescence still exists.  Requires
        the approximate lane (a ``sketch`` config).
        """
        if self.sketches is None:
            raise ValueError(
                "sketch rounds require Network(sketch=SketchConfig(...))"
            )
        entries = []
        for time, round_no in times:
            for node_id in sorted(self.nodes):
                entries.append(
                    (
                        time,
                        lambda n=node_id, r=round_no: self.sketches.begin_round(
                            self.nodes[n], r
                        ),
                    )
                )
        self.sim.schedule_timeline(entries, priority=1)
        return len(entries)

    # ------------------------------------------------------------------
    def run_to_quiescence(self, max_events: int | None = None) -> float:
        """Drain the agenda (no timers persist — stores prune lazily).

        On budget exhaustion raises :class:`LivelockError` with the
        hottest pending agenda actions and the busiest links — the
        diagnosis a retransmit/refresh storm needs.
        """
        try:
            return self.sim.run(max_events=max_events)
        except AgendaBudgetExceeded:
            raise LivelockError(
                max_events if max_events is not None else 0,
                self.sim.agenda_summary(),
                self.meter.busiest_links(),
            ) from None
