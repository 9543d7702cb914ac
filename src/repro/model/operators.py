"""Correlation operators — the unit of subscription placement.

Section V-B: as subscriptions travel from the user toward the sensors
they are split, each time the matching advertisement paths diverge, into
*correlation operators*: (sub)sets of filters that still require
time-(and possibly space-)correlation of several streams.  An operator
over a single stream is a *simple operator*; the distributed multi-join
baseline additionally uses *binary joins* (a main stream sanctioned by a
filtering stream).

The representation below serves all five evaluated systems:

* each operator carries one :class:`Slot` per required stream — for
  identified subscriptions a slot is one sensor, for resolved abstract
  subscriptions a slot is one attribute type with the set of sensors
  inside the region that can fill it;
* provenance (root subscription id and subscriber node) sticks to every
  projection so result streams can be attributed end-to-end;
* coverage between operators with the same slot structure implements the
  pair-wise covering check; FSF's set filter reads the slot intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .advertisements import AdvertisementTable
from .events import SimpleEvent
from .intervals import Interval
from .subscriptions import IdentifiedSubscription, Subscription, UNBOUNDED


@dataclass(frozen=True, slots=True)
class Slot:
    """One stream position of a correlation operator.

    ``slot_id`` is the correlation dimension (sensor id for identified
    subscriptions, attribute type for abstract ones); ``sensors`` are the
    concrete sensors whose events may fill the slot; ``attribute`` and
    ``interval`` give the value condition.
    """

    slot_id: str
    attribute: str
    interval: Interval
    sensors: frozenset[str]
    # Every operator and matcher-structure key hashes its slots, at
    # every hop; the generated hash would rebuild and re-hash the field
    # tuple (the interval included) per call, so cache it.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash((self.slot_id, self.attribute, self.interval, self.sensors)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[Any, ...]:
        # Rebuild through __init__ so the unpickling process hashes the
        # strings under its own seed (as CorrelationOperator does).
        return (Slot, (self.slot_id, self.attribute, self.interval, self.sensors))

    def accepts(self, event: SimpleEvent) -> bool:
        """Whether ``event`` can fill this slot."""
        return (
            event.sensor_id in self.sensors
            and event.attribute == self.attribute
            and self.interval.contains(event.value)
        )

    def covers(self, other: "Slot") -> bool:
        """Same stream position with a containing value range."""
        return (
            self.slot_id == other.slot_id
            and self.attribute == other.attribute
            and self.sensors == other.sensors
            and self.interval.contains_interval(other.interval)
        )

    def with_interval(self, interval: Interval) -> "Slot":
        return Slot(self.slot_id, self.attribute, interval, self.sensors)


@dataclass(frozen=True)
class CorrelationOperator:
    """A placed (fragment of a) subscription.

    Operators are value objects: projecting the same subscription onto
    the same slot subset yields an equal operator, which is what the
    per-neighbour subscription stores rely on for duplicate suppression.

    Besides the six fields an operator has three *derived identities*,
    read per stored operator per arrival (send tags, per-sensor
    indexes, coverage grouping):

    ``op_id``
        Stable human-readable identity (subscription + slot ids).
    ``sensors``
        Every concrete sensor any slot may draw events from.
    ``signature``
        Grouping key for coverage, ``(slot structure, delta_t, delta_l,
        main_slot)`` with the slot structure a flat ``(slot_id,
        attribute, sensors, ...)`` run over the slots.  Only operators
        with the same signature are comparable for subsumption (the
        paper filters "only subscriptions over the same attributes"
        and, for binary joins, "with the same signature").

    Each is an unset ``__slots__`` entry until first read:
    :meth:`__getattr__` — which Python consults only when the slot is
    still empty — computes and stores it, and every later read is a
    plain slot load.  Construction pays nothing for them (projection
    builds many operators that are never asked), and with no instance
    ``__dict__`` an operator with all three filled is no bigger than a
    dict-backed one without.
    """

    __slots__ = (
        "subscription_id",
        "subscriber",
        "slots",
        "delta_t",
        "delta_l",
        "main_slot",
        "_hash",
        "op_id",
        "sensors",
        "signature",
    )

    subscription_id: str
    subscriber: str
    slots: tuple[Slot, ...]
    delta_t: float
    delta_l: float  # defaults to UNBOUNDED
    main_slot: str | None  # set only on binary joins (multi-join baseline)

    if TYPE_CHECKING:
        # For type checkers only: a runtime annotation would turn these
        # into dataclass fields (compared, printed).
        _hash: int
        op_id: str
        sensors: frozenset[str]
        signature: tuple[tuple[object, ...], float, float, str | None]

    def __init__(
        self,
        subscription_id: str,
        subscriber: str,
        slots: Iterable[Slot],
        delta_t: float,
        delta_l: float = UNBOUNDED,
        main_slot: str | None = None,
    ) -> None:
        ordered = tuple(sorted(slots, key=lambda s: s.slot_id))
        if not ordered:
            raise ValueError("an operator needs at least one slot")
        ids = {s.slot_id for s in ordered}
        if len(ids) != len(ordered):
            raise ValueError("duplicate slot in operator")
        if main_slot is not None and main_slot not in ids:
            raise ValueError(f"main slot {main_slot!r} not among operator slots")
        self.__setstate__(
            (subscription_id, subscriber, ordered, delta_t, delta_l, main_slot)
        )

    def __setstate__(
        self, fields: tuple[str, str, tuple[Slot, ...], float, float, str | None]
    ) -> None:
        """Fill the six fields from slots already ordered by id and
        unique — :meth:`__init__` after its checks, and
        :meth:`project_sensors` for a subset of checked slots."""
        subscription_id, subscriber, slots, delta_t, delta_l, main_slot = fields
        object.__setattr__(self, "subscription_id", subscription_id)
        object.__setattr__(self, "subscriber", subscriber)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "delta_t", delta_t)
        object.__setattr__(self, "delta_l", delta_l)
        object.__setattr__(self, "main_slot", main_slot)
        # Engines resolve an operator's matcher by operator equality;
        # the generated frozen-dataclass hash re-walks every slot (and
        # its sensor frozenset) per lookup, so cache it once.
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __getattr__(self, name: str) -> Any:
        """Fill a derived identity on its first read (class docstring)."""
        derive = _DERIVED.get(name)
        if derive is None:
            raise AttributeError(name)
        value = derive(self)
        object.__setattr__(self, name, value)  # repro-lint: ignore[frozen-mutation] -- memoises a pure function of the fields; hash and equality never read it
        return value

    def __reduce__(self) -> tuple[Any, ...]:
        # Rebuild through __init__: frozen slots take no setattr-based
        # state, and the cached hash must be recomputed under the
        # unpickling process's string-hash seed anyway.
        return (
            CorrelationOperator,
            (
                self.subscription_id,
                self.subscriber,
                self.slots,
                self.delta_t,
                self.delta_l,
                self.main_slot,
            ),
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_simple(self) -> bool:
        """Single-stream operators suffer no further splitting."""
        return len(self.slots) == 1

    @property
    def is_binary_join(self) -> bool:
        return self.main_slot is not None

    # ------------------------------------------------------------------
    # matching helpers
    # ------------------------------------------------------------------
    def slot_for_event(self, event: SimpleEvent) -> Slot | None:
        """The slot ``event`` can fill, or None if it matches no slot."""
        for s in self.slots:
            if s.accepts(event):
                return s
        return None

    def accepts_some(self, event: SimpleEvent) -> bool:
        return self.slot_for_event(event) is not None

    # ------------------------------------------------------------------
    # projection / splitting
    # ------------------------------------------------------------------
    def project(self, slot_ids: Iterable[str]) -> "CorrelationOperator":
        """Projection onto a slot subset — the split step of Algorithm 3.

        Projections never keep a binary-join marker: the multi-join
        baseline re-derives binary joins explicitly.
        """
        wanted = set(slot_ids)
        kept = [s for s in self.slots if s.slot_id in wanted]
        if len(kept) != len(wanted):
            missing = wanted - {s.slot_id for s in kept}
            raise KeyError(f"operator has no slots {sorted(missing)}")
        return CorrelationOperator(
            self.subscription_id,
            self.subscriber,
            kept,
            self.delta_t,
            self.delta_l,
        )

    def project_sensors(self, sensor_ids: Iterable[str]) -> "CorrelationOperator | None":
        """Projection onto the slots fillable by the given sensors.

        This is the "projection of the subscription on the neighbour's
        data space" of Algorithm 3 (line 8): the advertisement table
        yields the sensors behind a neighbour, and the operator keeps the
        slots those sensors can fill.  Returns None when no slot remains,
        and the operator itself when every slot survives whole (the
        common case on a transit hop): operators are frozen values and
        the equal copy would carry the same ``op_id``.
        """
        available = frozenset(sensor_ids)  # a frozenset passes through as is
        if self.main_slot is None and self.sensors <= available:
            return self  # a projection drops the main slot
        kept = []
        for s in self.slots:
            if s.sensors <= available:
                kept.append(s)
            else:
                common = s.sensors & available
                if common:
                    kept.append(Slot(s.slot_id, s.attribute, s.interval, common))
        if not kept:
            return None
        # A subset of this operator's slots, in its order: already
        # sorted and unique, so skip the constructor's checks.
        piece = CorrelationOperator.__new__(CorrelationOperator)
        piece.__setstate__(
            (
                self.subscription_id,
                self.subscriber,
                tuple(kept),
                self.delta_t,
                self.delta_l,
                None,
            )
        )
        return piece

    def binary_joins(self) -> list["CorrelationOperator"]:
        """Ring-pair the slots into binary joins (multi-join baseline).

        Following [7] as distributed in Section III-B: each slot becomes
        the *main* stream of one binary join whose *filtering* stream is
        the next slot in a deterministic ring.  Operators with a single
        slot are returned unchanged (nothing to pair).  Two-slot
        operators form a ring of two: each stream is the main of one
        exact join (binary joins equal multi-joins with two attributes).
        *Every* slot must be a main stream — an event only travels
        toward the user on its own main stream, so a slot without one
        would strand its events at the divergence node and silently
        lose every match instance they anchor.
        """
        if len(self.slots) == 1:
            return [self]
        joins = []
        n = len(self.slots)
        for i, main in enumerate(self.slots):
            sanction = self.slots[(i + 1) % n]
            joins.append(
                CorrelationOperator(
                    self.subscription_id,
                    self.subscriber,
                    (main, sanction),
                    self.delta_t,
                    self.delta_l,
                    main_slot=main.slot_id,
                )
            )
        return joins

    # ------------------------------------------------------------------
    # coverage
    # ------------------------------------------------------------------
    def covers(self, other: "CorrelationOperator") -> bool:
        """Pair-wise covering: every event set matching ``other`` matches us.

        Requires the identical slot structure (paper: comparisons happen
        only between subscriptions over the same attributes) plus
        per-slot range containment and at-least-as-loose correlation
        distances.
        """
        if self.signature[0] != other.signature[0]:
            return False
        if self.main_slot != other.main_slot:
            return False
        if self.delta_t < other.delta_t or self.delta_l < other.delta_l:
            return False
        ours = {s.slot_id: s for s in self.slots}
        return all(ours[s.slot_id].covers(s) for s in other.slots)

    def widened(self, amount: float) -> "CorrelationOperator":
        """Coarsened copy of the operator (Section VI-F mitigation)."""
        return CorrelationOperator(
            self.subscription_id,
            self.subscriber,
            (s.with_interval(s.interval.widen(amount)) for s in self.slots),
            self.delta_t,
            self.delta_l,
            self.main_slot,
        )


def _op_id(operator: CorrelationOperator) -> str:
    tag = ",".join(s.slot_id for s in operator.slots)
    kind = f"|bj:{operator.main_slot}" if operator.main_slot else ""
    return f"{operator.subscription_id}[{tag}]{kind}"


def _sensors(operator: CorrelationOperator) -> frozenset[str]:
    if len(operator.slots) == 1:
        return operator.slots[0].sensors
    return frozenset[str]().union(*[s.sensors for s in operator.slots])


def _signature(
    operator: CorrelationOperator,
) -> tuple[tuple[object, ...], float, float, str | None]:
    structure: list[object] = []
    for s in operator.slots:
        structure += (s.slot_id, s.attribute, s.sensors)
    return (tuple(structure), operator.delta_t, operator.delta_l, operator.main_slot)


_DERIVED: dict[str, Callable[[CorrelationOperator], object]] = {
    "op_id": _op_id,
    "sensors": _sensors,
    "signature": _signature,
}


# ---------------------------------------------------------------------------
# construction from subscriptions
# ---------------------------------------------------------------------------
def root_operator(
    subscription: Subscription, subscriber: str, ads: AdvertisementTable
) -> CorrelationOperator | None:
    """The root operator of ``subscription`` at ``subscriber``, resolved
    against the advertised sensors of ``ads``; None when some source is
    absent (Algorithm 3, line 3: the subscription is dropped).

    An identified subscription gets one slot per named sensor, each of
    which must be advertised.  An abstract one gets one slot per
    attribute, filled by the advertised sensors of that attribute inside
    its region, and every attribute must have at least one.
    """
    if isinstance(subscription, IdentifiedSubscription):
        if not subscription.sensor_ids <= ads.known_ids:
            return None
        return CorrelationOperator(
            subscription.sub_id,
            subscriber,
            (
                Slot(f.sensor_id, f.attribute, f.interval, frozenset({f.sensor_id}))
                for f in subscription.filters
            ),
            subscription.delta_t,
        )
    slots: list[Slot] = []
    for clause in subscription.clauses:
        advertised = ads.sensors_matching(clause.attribute, clause.region)
        if not advertised:
            return None
        slots.append(
            Slot(
                clause.attribute,
                clause.attribute,
                clause.condition.interval,
                frozenset(ad.sensor_id for ad in advertised),
            )
        )
    return CorrelationOperator(
        subscription.sub_id,
        subscriber,
        slots,
        subscription.delta_t,
        subscription.delta_l,
    )
