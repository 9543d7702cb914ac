"""Broker-side state machine of the approximate answer lane.

One :class:`SketchLane` instance serves a whole
``Network(sketch=SketchConfig(...))`` run; per-broker state is keyed
by node id and the network layer drives it through a handful of hooks
(adopt on subscribe, forget on cancel, dispatch for the two lane
messages, ``begin_round`` from the scheduled push rounds) plus one
listener per broker event store (:meth:`SketchLane.store_listener`).

Lifecycle of one sketch-eligible subscription (single-slot range
filter over advertised sensors whose attribute has a configured
domain):

1. **Adopt.**  The home node resolves the root operator as usual; when
   it is eligible the lane takes it instead of the exact pipeline — no
   operator flood, no raw event forwarding, no local matcher.  Subs
   with the same ``(home, attribute, sensor set)`` share one *group*.
2. **Tree.**  A new group floods a ``SketchSubscribeMessage`` toward
   its sensors along the reverse advertisement paths (the same
   deterministic split operator registration uses); every broker on
   the way records its upstream neighbour and its expected children —
   a static push tree rooted at the home node.
3. **Summaries.**  Each broker folds the readings of its locally
   attached sensors into per-sensor summaries as its event store
   accepts them, and drops a sensor's summary when the store fences it.
   The store's churn fence is the only one: a straggler stamped at or
   before a departure is refused there until the sensor re-advertises,
   so answers never count retired sensors.
4. **Push rounds.**  At each scheduled round, leaves push their merged
   local summaries upstream; an interior broker merges its own
   contribution with all children's round-``r`` pushes (arrival order
   never matters — merge is associative/commutative) and pushes the
   result up.  Summaries are cumulative, so each round *replaces* the
   home node's previous answer state.
5. **Answer.**  The home node answers each member subscription's range
   from the group's latest merged summary with a certified
   ``[lower, upper]`` bracket (:class:`ApproxAnswer`).

The lane refuses nothing at runtime: the network constructor already
rejected faults and reliability (pushes assume lossless in-order
delivery, which is exactly what the plain transport provides),
``Network.add_node`` a node class that cannot host it, and
``Network.check_plan`` compiled placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..model import checks
from ..model.advertisements import AdvertisementTable
from ..model.attributes import SENSORSCOPE_ATTRIBUTES
from ..model.events import SimpleEvent
from ..model.intervals import Interval
from .messages import SketchPushMessage, SketchSubscribeMessage
from .qdigest import _MAX_LEVELS, QDigest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..model.operators import CorrelationOperator
    from ..model.subscriptions import Subscription
    from ..network.node import Node

LOCAL = AdvertisementTable.LOCAL


def _default_domains() -> tuple[tuple[str, float, float], ...]:
    return tuple(
        (a.name, a.domain.lo, a.domain.hi) for a in SENSORSCOPE_ATTRIBUTES
    )


_levels = checks.Rule(
    f"an integer in [1, {_MAX_LEVELS}]",
    lambda v: 1 <= v <= _MAX_LEVELS,
    integral=True,
)
"""The q-digest's range of ``levels``, checked when the config is built."""


@dataclass(frozen=True, slots=True)
class SketchConfig:
    """Tuning knobs of the approximate lane (frozen, hashable).

    ``k``/``levels`` parameterise the q-digest (``eps = levels / k``);
    ``push_interval`` is the period of the scheduled push rounds on the
    simulation clock; ``buckets_per_unit`` sizes push messages — one
    event-sized data unit carries that many ``(level, index, count)``
    buckets (a bucket packs into a few bytes against an event record's
    id + value + timestamp); ``domains`` lists ``(attribute, lo, hi)``
    quantization domains (``None`` = the five SensorScope attributes) —
    subscriptions on attributes without a domain are simply not
    eligible and keep the exact pipeline.
    """

    k: int = 64
    levels: int = 10
    push_interval: float = 80.0
    buckets_per_unit: int = 4
    domains: tuple[tuple[str, float, float], ...] | None = None

    def __post_init__(self) -> None:
        checks.positive_count(self, "k", "buckets_per_unit")
        _levels(self, "levels")
        checks.positive(self, "push_interval")
        for _, lo, hi in self.domains or ():
            checks.finite(self, domains=(lo, hi))

    def domain_map(self) -> dict[str, tuple[float, float]]:
        domains = (
            self.domains if self.domains is not None else _default_domains()
        )
        return {name: (lo, hi) for name, lo, hi in domains}

    def empty_summary(self, lo: float, hi: float) -> QDigest:
        return QDigest(self.k, self.levels, lo, hi)


@dataclass(frozen=True, slots=True)
class ApproxAnswer:
    """One subscription's certified range answer from a merged summary."""

    sub_id: str
    group_id: str
    attribute: str
    sensors: frozenset[str]
    interval: Interval
    summary: QDigest
    round_no: int
    lower: int
    upper: int
    estimate: int

    @property
    def n(self) -> int:
        """Stream length the summary covers."""
        return self.summary.n

    @property
    def error_bound(self) -> int:
        """The summary's deterministic absolute error certificate."""
        return self.summary.error_bound

    @property
    def eps(self) -> float:
        """A-priori rank-error factor of the digest."""
        return self.summary.eps


@dataclass(slots=True)
class _Group:
    """One push tree's per-broker view."""

    attribute: str
    sensors: frozenset[str]
    home: str
    upstream: str | None
    children: tuple[str, ...]
    local_sensors: frozenset[str]


@dataclass(slots=True)
class _Hosted:
    """Per-(broker, sensor) summary with a small fold-in buffer."""

    summary: QDigest
    pending: list[float] = field(default_factory=list)

    def folded(self) -> QDigest:
        if self.pending:
            self.summary = self.summary.extended(self.pending).compressed()
            self.pending.clear()
        return self.summary


_FOLD_EVERY = 32


class _StoreTap:
    """A broker's ``StoreListener``: what its event store accepts of a
    locally advertised sensor is counted, what it fences is forgotten —
    the next push round ages the sensor out of every merged digest."""

    def __init__(self, lane: "SketchLane", node: "Node") -> None:
        self.lane = lane
        self.node_id = node.node_id
        self.ads = node.ads

    def event_added(self, event: SimpleEvent) -> None:
        if event.sensor_id in self.ads.from_origin(LOCAL):
            self.lane.observe_local(self.node_id, event)

    def horizon_advanced(self, horizon: float) -> None:
        pass  # summaries are cumulative: expiry never shrinks them

    def sensor_fenced(self, sensor_id: str) -> None:
        self.lane._hosted.get(self.node_id, {}).pop(sensor_id, None)


class SketchLane:
    """All broker-resident sketch state of one approximate-mode run."""

    def __init__(self, config: SketchConfig) -> None:
        self.config = config
        self._domains = config.domain_map()
        # Every dict below is keyed by node id first; iteration is
        # always over sorted keys so runs are seed-deterministic.
        self._hosted: dict[str, dict[str, _Hosted]] = {}
        self._groups: dict[str, dict[str, _Group]] = {}
        self._subs: dict[str, dict[str, tuple[str, Interval]]] = {}
        self._answers: dict[str, dict[str, tuple[int, QDigest]]] = {}
        self._inbox: dict[tuple[str, str, int], dict[str, QDigest]] = {}

    # ------------------------------------------------------------------
    # eligibility & registration (home node)
    # ------------------------------------------------------------------
    def eligible(self, root: "CorrelationOperator") -> bool:
        """Single-slot range operators over a configured attribute."""
        if not root.is_simple:
            return False
        return root.slots[0].attribute in self._domains

    def adopt(
        self,
        node: "Node",
        subscription: "Subscription",
        root: "CorrelationOperator",
    ) -> bool:
        """Take an eligible subscription into the lane; False otherwise.

        Returning True means the exact pipeline must not register the
        subscription at all — no operator flood and no raw event
        forwarding happen for it; pushes and the merged summary answer
        it instead.
        """
        if not self.eligible(root):
            return False
        slot = root.slots[0]
        sensors = slot.sensors
        group_id = (
            f"{node.node_id}|{slot.attribute}|{','.join(sorted(sensors))}"
        )
        self._subs.setdefault(node.node_id, {})[subscription.sub_id] = (
            group_id,
            slot.interval,
        )
        groups = self._groups.setdefault(node.node_id, {})
        if group_id not in groups:
            groups[group_id] = self._register_group(
                node, group_id, slot.attribute, sensors, home=node.node_id,
                upstream=None,
            )
        return True

    def forget(self, node_id: str, sub_id: str) -> bool:
        """Drop a cancelled subscription's answer registration.

        The push tree stays up (soft state shared with sibling
        subscriptions; an empty group simply answers nobody) — sketch
        teardown traffic is a non-goal of this lane.
        """
        subs = self._subs.get(node_id)
        if subs is None or sub_id not in subs:
            return False
        del subs[sub_id]
        return True

    def _register_group(
        self,
        node: "Node",
        group_id: str,
        attribute: str,
        sensors: frozenset[str],
        home: str,
        upstream: str | None,
    ) -> _Group:
        """Record this broker's view of a group and flood it onward."""
        children = node.ads.split(sensors, exclude=LOCAL)
        group = _Group(
            attribute=attribute,
            sensors=sensors,
            home=home,
            upstream=upstream,
            children=tuple(neighbor for neighbor, _ in children),
            local_sensors=dict(node.ads.split(sensors)).get(LOCAL, frozenset()),
        )
        for neighbor, subset in children:
            node.network.send(
                node.node_id,
                neighbor,
                SketchSubscribeMessage(
                    group_id=group_id,
                    attribute=attribute,
                    sensors=subset,
                    home=home,
                ),
            )
        return group

    # ------------------------------------------------------------------
    # message handlers (driven by Node.receive)
    # ------------------------------------------------------------------
    def handle_subscribe(
        self, node: "Node", message: SketchSubscribeMessage, origin: str
    ) -> None:
        groups = self._groups.setdefault(node.node_id, {})
        if message.group_id in groups:
            return  # duplicate copy; the reverse-path split is a tree
        groups[message.group_id] = self._register_group(
            node,
            message.group_id,
            message.attribute,
            message.sensors,
            home=message.home,
            upstream=origin,
        )

    def handle_push(
        self, node: "Node", message: SketchPushMessage, origin: str
    ) -> None:
        group = self._groups[node.node_id][message.group_id]
        key = (node.node_id, message.group_id, message.round_no)
        box = self._inbox.setdefault(key, {})
        box[origin] = message.summary
        if all(child in box for child in group.children):
            del self._inbox[key]
            merged = self._local_summary(node.node_id, group)
            for child in group.children:
                merged = merged.merged(box[child])
            self._emit(node, message.group_id, group, message.round_no, merged)

    # ------------------------------------------------------------------
    # push rounds
    # ------------------------------------------------------------------
    def begin_round(self, node: "Node", round_no: int) -> None:
        """Round tick at one broker: leaves (and childless homes) emit.

        Interior brokers need no tick — they react to their children's
        pushes, which this same round triggers below them.
        """
        for group_id in sorted(self._groups.get(node.node_id, ())):
            group = self._groups[node.node_id][group_id]
            if group.children:
                continue
            self._emit(
                node,
                group_id,
                group,
                round_no,
                self._local_summary(node.node_id, group),
            )

    def _emit(
        self,
        node: "Node",
        group_id: str,
        group: _Group,
        round_no: int,
        merged: QDigest,
    ) -> None:
        merged = merged.compressed()
        if group.upstream is None:
            self._answers.setdefault(node.node_id, {})[group_id] = (
                round_no,
                merged,
            )
            return
        units = max(
            1, -(-merged.size // self.config.buckets_per_unit)
        )
        node.network.send(
            node.node_id,
            group.upstream,
            SketchPushMessage(
                group_id=group_id,
                round_no=round_no,
                summary=merged,
                units=units,
            ),
        )

    def _local_summary(self, node_id: str, group: _Group) -> QDigest:
        lo, hi = self._domains[group.attribute]
        merged = self.config.empty_summary(lo, hi)
        hosted = self._hosted.get(node_id, {})
        for sensor_id in sorted(group.local_sensors):
            acc = hosted.get(sensor_id)
            if acc is not None:
                merged = merged.merged(acc.folded())
        return merged

    # ------------------------------------------------------------------
    # summary maintenance (driven by each broker's event store)
    # ------------------------------------------------------------------
    def store_listener(self, node: "Node") -> "_StoreTap":
        """The listener for ``node``'s (fresh) event store."""
        return _StoreTap(self, node)

    def observe_local(self, node_id: str, event: SimpleEvent) -> None:
        """Fold a locally published reading into its sensor's summary."""
        domain = self._domains.get(event.attribute)
        if domain is None:
            return
        hosted = self._hosted.setdefault(node_id, {})
        acc = hosted.get(event.sensor_id)
        if acc is None:
            lo, hi = domain
            acc = hosted[event.sensor_id] = _Hosted(
                self.config.empty_summary(lo, hi)
            )
        acc.pending.append(event.value)
        if len(acc.pending) >= _FOLD_EVERY:
            acc.folded()

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def query_answers(self) -> Mapping[str, ApproxAnswer]:
        """Every answered lane subscription's certified range answer.

        Subscriptions whose group has not completed a push round yet
        are absent (there is nothing to answer from).
        """
        out: dict[str, ApproxAnswer] = {}
        for node_id in sorted(self._subs):
            answers = self._answers.get(node_id, {})
            groups = self._groups.get(node_id, {})
            for sub_id in sorted(self._subs[node_id]):
                group_id, interval = self._subs[node_id][sub_id]
                answer = answers.get(group_id)
                if answer is None:
                    continue
                round_no, summary = answer
                group = groups[group_id]
                lower, upper = summary.range_count_bounds(
                    interval.lo, interval.hi
                )
                out[sub_id] = ApproxAnswer(
                    sub_id=sub_id,
                    group_id=group_id,
                    attribute=group.attribute,
                    sensors=group.sensors,
                    interval=interval,
                    summary=summary,
                    round_no=round_no,
                    lower=lower,
                    upper=upper,
                    estimate=lower + (upper - lower) // 2,
                )
        return out

    def answer_for(self, sub_id: str) -> ApproxAnswer | None:
        """One subscription's current answer (None before any round)."""
        return self.query_answers().get(sub_id)
