"""Message types exchanged between processing nodes.

Data propagation in the system is three-fold (Section IV-B):
advertisements, subscriptions (as correlation operators), and events.
Each message knows how many *data units* it costs on a link, which is
what the paper's two headline metrics count:

* **subscription load** — one unit per correlation operator per link;
* **publication load** — one unit per simple event per link for
  publish/subscribe forwarding, and one unit per *(event, result-set
  stream)* per link for the approaches that construct per-subscription
  result sets (naive, operator placement, centralized).

Every message class *declares* what the meter and the transport read,
as class-level data: its three channel units, ``sketch_units`` (the
approximate lane's share of them), ``teardown`` (it retires a query),
``refresh_epoch`` (not ``None`` on a soft-state refresh copy) and
``reliable`` (the reliability layer acks it).  No base class supplies
defaults: a forgotten declaration fails in ``TrafficMeter.record``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..model.advertisements import Advertisement
from ..model.events import SimpleEvent
from ..model.operators import CorrelationOperator
from ..sketches.messages import SketchPushMessage, SketchSubscribeMessage


@dataclass(frozen=True, slots=True)
class AdvertisementMessage:
    """Flooded ``DSA_d`` (Algorithm 1), or its retraction.

    ``retract=True`` floods the *departure* of a sensor: receivers drop
    the advertisement, fence the sensor's stored events and forward the
    retraction — the inverse of Algorithm 1, introduced for churn.  A
    later re-join floods the plain advertisement again (the re-flood
    path).  Retractions cost one advertisement unit per link, exactly
    like the advertisement they cancel; both are part of the
    advertisement load the churn experiments account for.

    ``refresh_epoch`` tags soft-state refresh copies: round ``k`` of the
    reliability layer's periodic re-flood.  Refresh copies dedupe per
    sensor per epoch (not via the advertisement table, which would stop
    them before they reach a recovered, state-less broker) and renew the
    receiver's soft-state clock for the sensor.
    """

    advertisement: Advertisement
    retract: bool = False
    refresh_epoch: int | None = None

    subscription_units: ClassVar[int] = 0
    event_units: ClassVar[int] = 0
    advertisement_units: ClassVar[int] = 1
    sketch_units: ClassVar[int] = 0
    teardown: ClassVar[bool] = False
    reliable: ClassVar[bool] = True


@dataclass(frozen=True, slots=True)
class OperatorMessage:
    """A correlation operator travelling the reverse advertisement path.

    ``refresh_epoch`` tags soft-state re-sends: the sender re-offers an
    operator it already forwarded over this link so a broker that
    crashed (and lost its stores) re-learns it.  Receivers that still
    hold the operator ignore the copy.

    ``plan`` carries the compiled placement plan the operator travels
    under (``None``: the paper's heuristic routing).  The network layer
    treats it as an opaque object exposing ``next_hops(node_id,
    sensors)`` — plans are built by ``repro.placement``, which sits
    above this layer.  A planned operator costs exactly one
    subscription unit per link, like any other.
    """

    operator: CorrelationOperator
    refresh_epoch: int | None = None
    plan: object | None = None

    subscription_units: ClassVar[int] = 1
    event_units: ClassVar[int] = 0
    advertisement_units: ClassVar[int] = 0
    sketch_units: ClassVar[int] = 0
    teardown: ClassVar[bool] = False
    reliable: ClassVar[bool] = True


@dataclass(frozen=True, slots=True)
class UnsubscribeMessage:
    """A query-lifecycle retirement travelling the operator channel.

    Cancellation is the inverse of Algorithm 3: the message retraces
    exactly the links the subscription's correlation operators were
    forwarded over (each node remembers where it sent them), removing
    the stored operators and repairing coverage decisions on the way —
    so the routing state left behind is the state of a network that
    never saw the subscription.  It costs one subscription unit per
    link, exactly like the operator flood it cancels; both sides of a
    submit/cancel pair are part of the subscription load.
    """

    subscription_id: str

    subscription_units: ClassVar[int] = 1
    event_units: ClassVar[int] = 0
    advertisement_units: ClassVar[int] = 0
    sketch_units: ClassVar[int] = 0
    teardown: ClassVar[bool] = True
    refresh_epoch: ClassVar[None] = None
    reliable: ClassVar[bool] = True


@dataclass(frozen=True, slots=True)
class EventMessage:
    """A simple event on a link.

    ``streams`` names the result-set streams (operator ids) the event
    travels in for per-subscription forwarding; an empty tuple means
    publish/subscribe forwarding where the link carries the event once
    for everyone.  The unit cost follows the paper's accounting: one
    per stream, or one in total for publish/subscribe.
    """

    event: SimpleEvent
    streams: tuple[str, ...] = ()

    subscription_units: ClassVar[int] = 0
    advertisement_units: ClassVar[int] = 0
    sketch_units: ClassVar[int] = 0
    teardown: ClassVar[bool] = False
    refresh_epoch: ClassVar[None] = None
    reliable: ClassVar[bool] = False

    @property
    def event_units(self) -> int:
        return len(self.streams) or 1


Message = (
    AdvertisementMessage
    | OperatorMessage
    | EventMessage
    | UnsubscribeMessage
    | SketchSubscribeMessage
    | SketchPushMessage
)
