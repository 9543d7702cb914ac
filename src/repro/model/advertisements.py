"""Data-source advertisements.

Section IV-A: a sensor ``d`` makes its presence known by producing a
*data source advertisement* ``DSA_d = (a_d, p_d)``.  Advertisements are
flooded through the acyclic network (Algorithm 1) and stored per
neighbour, so that subscriptions can deterministically follow the reverse
advertisement path toward matching sensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .locations import Location, Region


Split = tuple[tuple[str, frozenset[str]], ...]
"""A sensor set partitioned by reverse path: ``(origin, sensors)`` pairs."""


@dataclass(frozen=True, slots=True)
class Advertisement:
    """``DSA_d = (a_d, p_d)`` plus the sensor's id for identified routing."""

    sensor_id: str
    attribute: str
    location: Location


class AdvertisementTable:
    """Per-neighbour advertisement store of one processing node.

    Mirrors Figure 2 of the paper: a node keeps one ``DSA_m`` structure
    for each neighbour ``m`` plus ``DSA_local`` for attached sensors.
    Lookups answer the two questions subscription propagation asks:

    * which neighbour leads to sensor ``d`` (reverse advertisement path);
    * which sensors of attribute ``a`` inside region ``L`` exist at all
      (resolution of abstract subscriptions, and the "absent sources"
      check of Algorithm 3).
    """

    LOCAL = "__local__"

    def __init__(self) -> None:
        self._by_origin: dict[str, dict[str, Advertisement]] = {}
        self._next_hop: dict[str, str] = {}
        # (sensor set, excluded origin) -> its split; emptied by every
        # write of _next_hop, which the split is a function of.
        self._splits: dict[tuple[frozenset[str], str | None], Split] = {}

    def add(self, origin: str, advertisement: Advertisement) -> bool:
        """Store an advertisement received from ``origin``.

        Returns False when the same sensor was already known (the flood
        then stops — in an acyclic network this only happens for a
        sensor re-advertising, not for loops).
        """
        table = self._by_origin.setdefault(origin, {})
        if advertisement.sensor_id in self._next_hop:
            already = table.get(advertisement.sensor_id)
            if already == advertisement:
                return False
        table[advertisement.sensor_id] = advertisement
        self._next_hop[advertisement.sensor_id] = origin
        self._splits.clear()
        return True

    def remove(self, sensor_id: str) -> bool:
        """Forget a retracted sensor; False when it was never known.

        The churn counterpart of :meth:`add`: a retraction flood removes
        the reverse-path entry, so a later re-join advertisement is
        *new* again and re-floods through the whole network (the flood
        of :meth:`add` would otherwise stop at the first node that still
        remembered the sensor).
        """
        origin = self._next_hop.pop(sensor_id, None)
        if origin is None:
            return False
        self._splits.clear()
        self._by_origin[origin].pop(sensor_id, None)
        return True

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def knows(self, sensor_id: str) -> bool:
        return sensor_id in self._next_hop

    def get(self, sensor_id: str) -> Advertisement | None:
        origin = self._next_hop.get(sensor_id)
        if origin is None:
            return None
        return self._by_origin[origin][sensor_id]

    def from_origin(self, origin: str) -> Mapping[str, Advertisement]:
        """All advertisements received from one neighbour (``DSA_m``)."""
        return self._by_origin.get(origin, {})

    def origins(self) -> Iterator[str]:
        return iter(self._by_origin)

    def all(self) -> Iterator[Advertisement]:
        for table in self._by_origin.values():
            yield from table.values()

    def sensors_matching(
        self, attribute: str, region: Region | None = None
    ) -> list[Advertisement]:
        """Advertised sensors of ``attribute`` (optionally within ``region``).

        This is the lookup that resolves an abstract filter ``F_{A,L}``
        into the concrete sensors it applies to.
        """
        hits = [ad for ad in self.all() if ad.attribute == attribute]
        if region is not None:
            hits = [ad for ad in hits if region.contains(ad.location)]
        hits.sort(key=lambda ad: ad.sensor_id)
        return hits

    def partition_by_origin(
        self, sensor_ids: Iterable[str]
    ) -> dict[str, list[str]]:
        """Group sensor ids by the neighbour their advertisements came from.

        The split step of Algorithm 3 forwards, to each neighbour, the
        projection of a subscription onto exactly this partition class.
        Unknown sensors are omitted (the caller decides whether that is
        an error or an "absent sources" drop).
        """
        partition: dict[str, list[str]] = {}
        for sensor_id in sensor_ids:
            origin = self._next_hop.get(sensor_id)
            if origin is None:
                continue
            partition.setdefault(origin, []).append(sensor_id)
        for group in partition.values():
            group.sort()
        return partition

    def split(self, sensors: frozenset[str], exclude: str | None = None) -> Split:
        """:meth:`partition_by_origin` of ``sensors`` as ``(origin,
        sensor subset)`` pairs sorted by origin, ``exclude`` left out.

        Memoised: admission splits the same sensor sets at every hop
        (clones of a query, pieces of one shape), and the answer
        depends only on the sensor set, the exclusion and the reverse
        path entries, which :meth:`add` and :meth:`remove` — their only
        writers — forget the memo on.  The pairs are shared: read them,
        never edit them.
        """
        key = (sensors, exclude)
        found = self._splits.get(key)
        if found is None:
            found = self._splits[key] = tuple(
                # one path holds the whole set (a transit hop): share it
                (origin, sensors if len(group) == len(sensors) else frozenset(group))
                for origin, group in sorted(self.partition_by_origin(sensors).items())
                if origin != exclude
            )
        return found
