"""Unreliable transport lane + opt-in hop-by-hop reliability.

When a :class:`~repro.network.faults.FaultPlan` is active (or a
:class:`ReliabilityConfig` is passed), :meth:`Network.send` /
:meth:`Network.unicast` delegate to one :class:`Transport` instead of
delivering inline.  The transport

* draws per-link drop/delay/jitter from a dedicated simulator stream
  (``faults:<plan.seed>``, derived via :mod:`repro.seeding` — runs stay
  PYTHONHASHSEED-independent and sharded == serial);
* discards deliveries addressed to a crashed broker at fire time;
* and, with reliability enabled, runs **acked transfers** for control
  traffic (advertisements, operators, unsubscribes): each transmission
  is acknowledged hop-by-hop; a missing ack retransmits after
  ``ack_timeout * backoff**attempt`` up to ``max_retries`` times, then
  the transfer is abandoned.  Retransmitted copies bill the meter like
  the original *plus* ``retransmission_units`` — the reliability
  overhead figure 18 plots.  Receivers deduplicate by transfer: only
  the first copy to arrive is delivered, later ones (even after the
  transfer ended) are just acked again, so an at-least-once wire yields
  at-most-once delivery.  Event messages are never acked:
  recall-vs-loss is the measured trade-off.

Acks travel the reverse link under the same fault model but are *free*
(no meter charge): the paper's unit accounting counts data-plane
payloads, and an ack is a constant-size control frame.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np

    from ..sim import Handle
    from .faults import FaultPlan
    from .network import Network

LinkPath = tuple[tuple[str, str], ...]
"""The directed links one transmission crosses, in order (one entry for
a neighbour send, the whole route for the centralized unicast)."""

_Crossing = tuple[float, float, float]
"""One directed link resolved against the plan: ``(drop probability,
base latency + fixed delay, jitter width)``."""
_Route = tuple[tuple[_Crossing, ...], tuple[_Crossing, ...]]
"""The crossings of a link path and of its reverse (the ack's way)."""


def _uniform_draws(rng: "np.random.Generator") -> Iterator[float]:
    """The stream's uniform doubles, read in blocks: ``rng.random(n)``
    yields the doubles ``n`` scalar calls would, in the same order
    (pinned in tests/test_reliability.py), and ``faults:<seed>`` has no
    other reader."""
    while True:
        yield from rng.random(512).tolist()


@dataclass(frozen=True, slots=True)
class ReliabilityConfig:
    """Opt-in reliability knobs for control traffic + soft state.

    ``ack_timeout``/``backoff``/``max_retries`` parameterise the
    retransmission schedule (attempt ``k`` waits
    ``ack_timeout * backoff**k``); ``backoff >= 1`` guarantees retries
    never schedule into the past.  ``refresh_interval`` is the period of
    the soft-state refresh rounds (advertisement re-floods and
    subscription re-sends) and ``expiry_rounds`` how many missed rounds
    expire a remote advertisement — the soft-state lifetime.
    """

    ack_timeout: float = 1.0
    backoff: float = 2.0
    max_retries: int = 4
    refresh_interval: float = 60.0
    expiry_rounds: int = 2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ack_timeout) and self.ack_timeout > 0):
            raise ValueError("ack_timeout must be positive and finite")
        if not (math.isfinite(self.backoff) and self.backoff >= 1):
            raise ValueError(
                "backoff must be finite and >= 1 (retries must never "
                "schedule in the past)"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (math.isfinite(self.refresh_interval) and self.refresh_interval > 0):
            raise ValueError("refresh_interval must be positive and finite")
        if self.expiry_rounds < 1:
            raise ValueError("expiry_rounds must be >= 1")

    def retry_delay(self, attempt: int) -> float:
        """Backoff before retransmission number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return self.ack_timeout * self.backoff**attempt


@dataclass(slots=True, eq=False)
class _Transfer:
    """One acked control transfer (possibly multi-hop for unicast).

    ``delivered`` once the first copy reached the destination node,
    ``done`` once the sender is through with it (acked, out of retries,
    or crashed).  Neither is ever reset, so copies and acks still in
    flight when the transfer ends find it ended.
    """

    tid: int
    src: str
    dst: str
    origin: str
    message: Message
    links: LinkPath
    forward: tuple[_Crossing, ...]
    back: tuple[_Crossing, ...]
    attempts: int = 0
    delivered: bool = False
    done: bool = False
    timer: "Handle" = field(init=False)


class Transport:
    """The fault-and-reliability lane of one :class:`Network`.

    Built only when a truthy plan or a reliability config is present;
    without it ``Network.send`` keeps its historical inline path, byte
    for byte.

    Every action it schedules is a named function defined inside one of
    its methods (``arrive``, ``timeout``, ``acked``, ``deliver``): the
    livelock report names pending work by qualname, and the benchmark
    trace bills agenda time to this layer by the ``Transport.`` prefix
    and counts retry timers by their call to ``_timeout``.
    """

    def __init__(
        self,
        network: "Network",
        plan: "FaultPlan",
        reliability: ReliabilityConfig | None,
    ) -> None:
        self.network = network
        self.plan = plan
        self.reliability = reliability
        self.rng = network.sim.rng(f"faults:{plan.seed}")
        self._draws = _uniform_draws(self.rng)
        # Resolved on first use: plan and base latency are fixed for a run.
        self._routes: dict[LinkPath, _Route] = {}
        self._retry_delays = (
            [reliability.retry_delay(k) for k in range(reliability.max_retries + 1)]
            if reliability is not None
            else []
        )
        self._tid = itertools.count()
        # Live transfers by sending broker (what a crash abandons).
        self._by_src: dict[str, dict[int, _Transfer]] = {}
        self.abandoned_transfers = 0

    @property
    def live_transfers(self) -> int:
        """Acked transfers still awaiting their ack or a retry."""
        return sum(len(transfers) for transfers in self._by_src.values())

    # ------------------------------------------------------------------
    # fault draws
    # ------------------------------------------------------------------
    def _route(self, links: LinkPath) -> _Route:
        route = self._routes.get(links)
        if route is None:
            back = tuple((dst, src) for src, dst in reversed(links))
            route = self._routes[links] = (
                tuple(self._crossing(*link) for link in links),
                tuple(self._crossing(*link) for link in back),
            )
        return route

    def _crossing(self, src: str, dst: str) -> _Crossing:
        fault = self.plan.link_fault(src, dst)
        return (fault.drop, self.network.latency + fault.delay, fault.jitter)

    def _transit(self, crossings: tuple[_Crossing, ...]) -> float | None:
        """Total transit time over ``crossings``, or None when dropped.

        One drop draw per link, then that link's jitter draw; the walk
        stops at the first loss (no further draws — deterministic, since
        the agenda serialises every draw of the single stream).
        """
        total = 0.0
        for drop, delay, jitter in crossings:
            if drop and next(self._draws) < drop:
                return None
            if jitter:
                delay += jitter * next(self._draws)
            total += delay
        return total

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Message) -> None:
        """One-hop neighbour transfer through the fault lane."""
        self._transmit(src, dst, src, message, ((src, dst),))

    def unicast(
        self,
        src: str,
        dst: str,
        origin: str,
        message: Message,
        links: LinkPath,
    ) -> None:
        """Multi-hop transfer (centralized baseline) through the lane.

        Every hop bills its own link (``TrafficMeter.record_path``) and
        draws its own loss and delay.  With reliability, the transfer is
        acked end to end and a retransmission re-pays the whole path.
        """
        self._transmit(src, dst, origin, message, links)

    def _transmit(
        self,
        src: str,
        dst: str,
        origin: str,
        message: Message,
        links: LinkPath,
    ) -> None:
        route = self._route(links)
        if self.reliability is not None and message.reliable:
            transfer = _Transfer(
                next(self._tid), src, dst, origin, message, links, *route
            )
            self._by_src.setdefault(src, {})[transfer.tid] = transfer
            self._attempt(transfer)
            return
        network = self.network
        network.meter.record_path(links, message)
        transit = self._transit(route[0])
        if transit is None or dst in network.down:
            network.meter.record_drop()
            return

        def deliver() -> None:
            if dst in network.down:
                network.meter.record_drop()
            else:
                network.nodes[dst].receive(message, origin)

        network.sim.schedule(transit, deliver)

    # ------------------------------------------------------------------
    # acked transfers
    # ------------------------------------------------------------------
    def _attempt(self, transfer: _Transfer) -> None:
        network = self.network
        attempt = transfer.attempts
        transfer.attempts = attempt + 1
        network.meter.record_path(
            transfer.links, transfer.message, attempt > 0
        )
        transit = self._transit(transfer.forward)
        if transit is None:
            network.meter.record_drop()
        else:

            def arrive() -> None:
                self._arrive(transfer)

            network.sim.schedule(transit, arrive)

        def timeout() -> None:
            self._timeout(transfer)

        transfer.timer = network.sim.schedule(
            self._retry_delays[attempt], timeout
        )

    def _arrive(self, transfer: _Transfer) -> None:
        network = self.network
        if transfer.dst in network.down:
            # Lost at a crashed broker: no ack, so a later attempt may
            # land after recovery — control traffic heals across
            # outages bounded only by the retry budget.
            network.meter.record_drop()
            return
        if not transfer.delivered:
            transfer.delivered = True
            network.nodes[transfer.dst].receive(
                transfer.message, transfer.origin
            )
        # Every copy is acknowledged, also one of an ended transfer: the
        # receiver cannot know the sender is through with it.
        transit = self._transit(transfer.back)
        if transit is None:
            return  # the ack was lost; the timer retransmits

        def acked() -> None:
            if not transfer.done:
                self._end(transfer)

        network.sim.schedule(transit, acked)

    def _timeout(self, transfer: _Transfer) -> None:
        if transfer.done:
            return
        if transfer.attempts < len(self._retry_delays):
            self._attempt(transfer)
        else:  # retry budget spent
            self.abandoned_transfers += 1
            self._end(transfer)

    def _end(self, transfer: _Transfer) -> None:
        transfer.done = True
        transfer.timer.cancel()
        del self._by_src[transfer.src][transfer.tid]

    def abandon_from(self, node_id: str) -> int:
        """Drop every live transfer originated by a crashing broker.

        Its volatile send state dies with it; returns the count.
        """
        transfers = self._by_src.pop(node_id, {})
        for transfer in transfers.values():
            transfer.done = True
            transfer.timer.cancel()
        return len(transfers)
