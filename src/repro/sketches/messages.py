"""Wire messages of the sketch lane.

Defined here (below the network layer) so :class:`SketchLane` can
construct them; the network layer imports them into its ``Message``
union.  Both make the same declarations every message class makes
(``repro.network.messages`` lists them); their ``sketch_units`` equal
what they bill on the shared channels, so the meter can split the
lane's share out for the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .qdigest import QDigest


@dataclass(frozen=True, slots=True)
class SketchSubscribeMessage:
    """Establishes one hop of a sketch group's push tree.

    Flooded from a subscription's home node toward the group's sensors
    along the reverse advertisement paths (the same deterministic split
    operator registration uses); each receiving broker records the
    sender as its upstream for the group and forwards per-origin
    pieces onward.  Costs one subscription unit per link, like any
    other registration message.
    """

    group_id: str
    attribute: str
    sensors: frozenset[str]
    home: str

    subscription_units: ClassVar[int] = 1
    event_units: ClassVar[int] = 0
    advertisement_units: ClassVar[int] = 0
    sketch_units: ClassVar[int] = 1
    teardown: ClassVar[bool] = False
    refresh_epoch: ClassVar[None] = None
    reliable: ClassVar[bool] = False


@dataclass(frozen=True, slots=True)
class SketchPushMessage:
    """One round's merged summary travelling one hop up a push tree.

    ``units`` is the data-unit cost the sender computed from the
    summary's bucket count (``SketchConfig.buckets_per_unit`` buckets
    fit the payload of one event-sized data unit); it bills the event
    channel — pushes replace raw event forwarding, so they must pay on
    the same meter the figures compare.
    """

    group_id: str
    round_no: int
    summary: "QDigest"
    units: int

    subscription_units: ClassVar[int] = 0
    advertisement_units: ClassVar[int] = 0
    teardown: ClassVar[bool] = False
    refresh_epoch: ClassVar[None] = None
    reliable: ClassVar[bool] = False

    @property
    def event_units(self) -> int:
        return self.units

    @property
    def sketch_units(self) -> int:
        return self.units
