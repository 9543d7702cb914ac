"""Explicit operator placement plans.

A :class:`PlacementPlan` is the compiled routing program for one
query's correlation operator: which operator piece (identified by its
sensor set) each node stores, and where it forwards which sub-piece
next.  The network layer executes plans opaquely — a node asks
``plan.next_hops(node_id, sensors)`` and projects its operator
accordingly — so plans stay duck-typed below the placement layer,
exactly like churn schedules (``transitions()``) stay duck-typed in
``Network.schedule_churn``.

The plan encodes the *rendezvous* structure the compiler chose: the
full operator travels from the user's node to the rendezvous (events
crossing those links are gated by the full correlation), and is split
into per-branch sub-pieces from the rendezvous toward the sensor hosts
(the paper's progressive split below it).  The paper's heuristic is the
degenerate plan whose rendezvous is the natural divergence node.
"""

from __future__ import annotations

from dataclasses import dataclass, field


SensorKey = tuple[str, ...]
"""A piece identity: the sorted tuple of its sensor ids."""


def sensor_key(sensors) -> SensorKey:
    """Canonical piece key for any iterable of sensor ids."""
    return tuple(sorted(sensors))


@dataclass(frozen=True, slots=True)
class PlanHop:
    """One routing-table row: the piece at ``node_id`` identified by
    ``sensors`` forwards each ``(neighbor, sub-piece sensors)`` next."""

    node_id: str
    sensors: SensorKey
    next: tuple[tuple[str, SensorKey], ...]

    def __post_init__(self) -> None:
        routed = [s for _, subset in self.next for s in subset]
        if len(routed) != len(set(routed)):
            raise ValueError(
                f"plan hop at {self.node_id!r} routes a sensor twice"
            )
        if not set(routed) <= set(self.sensors):
            raise ValueError(
                f"plan hop at {self.node_id!r} routes sensors outside its piece"
            )


@dataclass(frozen=True)
class PlacementPlan:
    """One query's compiled operator placement.

    ``hops`` is the complete routing table; ``rendezvous`` the node the
    compiler gates the full correlation at; ``cost`` the modelled cost
    of this plan and ``paper_cost`` the modelled cost of the paper
    heuristic's natural split on the same query (``cost <= paper_cost``
    by construction — the heuristic is always a candidate).
    """

    sub_id: str
    user_node: str
    rendezvous: str
    hops: tuple[PlanHop, ...]
    cost: float
    paper_cost: float
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table: dict[tuple[str, SensorKey], tuple[tuple[str, frozenset[str]], ...]] = {}
        for hop in self.hops:
            key = (hop.node_id, hop.sensors)
            if key in table:
                raise ValueError(
                    f"duplicate plan hop for piece {hop.sensors} at "
                    f"{hop.node_id!r}"
                )
            table[key] = tuple(
                (neighbor, frozenset(subset)) for neighbor, subset in hop.next
            )
        object.__setattr__(self, "_table", table)

    def next_hops(
        self, node_id: str, sensors: frozenset[str]
    ) -> tuple[tuple[str, frozenset[str]], ...]:
        """Where the piece covering ``sensors`` goes from ``node_id``.

        Returns ``(neighbor, sub-piece sensor set)`` pairs; an empty
        tuple means the piece terminates here (a leaf host).  This is
        the whole interface the network layer uses.
        """
        return self._table.get((node_id, sensor_key(sensors)), ())

    def __getstate__(self):
        return {
            "sub_id": self.sub_id,
            "user_node": self.user_node,
            "rendezvous": self.rendezvous,
            "hops": self.hops,
            "cost": self.cost,
            "paper_cost": self.paper_cost,
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()
