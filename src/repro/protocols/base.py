"""Approach descriptors — the five evaluated systems as pluggable units.

Table II of the paper summarises each approach by three design axes:
subscription filtering, subscription splitting and event propagation.
An :class:`Approach` carries those labels (the registry renders Table II
from them) together with the node factory the experiment runner uses to
populate a network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.network import Network
    from ..network.node import Node

NodeFactory = Callable[[str, "Network"], "Node"]


@dataclass(frozen=True)
class Approach:
    """One evaluated system: metadata + node factory.

    Approaches pickle — ``make_node`` is a module-level callable or a
    ``functools.partial`` of one carrying its configuration — so the
    experiment runner ships them to worker processes as they are.
    """

    key: str
    name: str
    subscription_filtering: str
    subscription_splitting: str
    event_propagation: str
    make_node: NodeFactory

    def populate(self, network: "Network") -> "Network":
        """Instantiate this approach's node on every graph vertex."""
        network.populate(self.make_node)
        return network

    def table_row(self) -> tuple[str, str, str, str]:
        """The approach's Table II row."""
        return (
            self.name,
            self.subscription_filtering,
            self.subscription_splitting,
            self.event_propagation,
        )
