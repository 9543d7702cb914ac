"""The placement cost model — pricing one candidate rendezvous.

For a query at user node ``u`` with root operator ``O`` and candidate
rendezvous ``r``, the model prices the steady-state flow the plan
induces on the overlay tree::

    transfer(r) = sum_s  rate_s * pass_s * C(path(host_s, r))     (gated streams in)
                +  match_rate * |slots| * C(path(r, u))           (full matches out)
    registration(r) = sum over plan edges of  link_cost(edge)     (operator units)

where ``C(path)`` sums per-link costs, a link being priced by its
slower endpoint (``1 / min(link_bandwidth)``), ``rate_s``/``pass_s``
come from :class:`~repro.placement.stats.WorkloadStats` (exact replay
arithmetic), and ``match_rate`` is the bottleneck estimator
``min over slots of the slot's gated rate`` — a full match needs every
slot filled, so the rarest slot bounds the result stream.

Everything is closed-form float arithmetic over deterministic inputs:
no RNG, no ``derive_seed``, no iteration-order dependence (sensors and
paths are walked sorted).  Pricing the same candidate twice — in any
process — yields bit-identical costs, which is what makes the
compiler's argmin reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.operators import CorrelationOperator
    from ..network.topology import Deployment
    from .stats import WorkloadStats


def link_cost(deployment: "Deployment", a: str, b: str) -> float:
    """Units-per-bandwidth price of one link: the slower endpoint pays."""
    return 1.0 / min(
        deployment.spec_of(a).link_bandwidth,
        deployment.spec_of(b).link_bandwidth,
    )


def path_cost(deployment: "Deployment", path: Sequence[str]) -> float:
    """Summed link costs along a node path (0.0 for a trivial path)."""
    return sum(
        link_cost(deployment, path[i], path[i + 1])
        for i in range(len(path) - 1)
    )


@dataclass(frozen=True, slots=True)
class PlanCost:
    """The priced components of one candidate placement."""

    transfer: float
    registration: float

    @property
    def total(self) -> float:
        return self.transfer + self.registration


def price_rendezvous(
    deployment: "Deployment",
    operator: "CorrelationOperator",
    user_node: str,
    rendezvous: str,
    host_of: Mapping[str, str],
    stats: "WorkloadStats",
    tree_path,
) -> PlanCost:
    """Price gating the full correlation of ``operator`` at ``rendezvous``.

    ``tree_path(a, b)`` returns the unique overlay tree path as a node
    list; ``host_of`` maps sensor ids to their hosting nodes.
    """
    n_slots = len(operator.slots)
    transfer_in = 0.0
    slot_rates = []
    for slot in operator.slots:
        slot_gated = 0.0
        for sensor_id in sorted(slot.sensors):
            gated = stats.gated_rate(sensor_id, slot.interval)
            slot_gated += gated
            transfer_in += gated * path_cost(
                deployment, tree_path(host_of[sensor_id], rendezvous)
            )
        slot_rates.append(slot_gated)
    match_rate = min(slot_rates) if slot_rates else 0.0
    transfer_out = (
        match_rate * n_slots * path_cost(deployment, tree_path(rendezvous, user_node))
    )
    edges: set[tuple[str, str]] = set()
    for path in [tree_path(user_node, rendezvous)] + [
        tree_path(rendezvous, host_of[s]) for s in sorted(operator.sensors)
    ]:
        for i in range(len(path) - 1):
            edges.add(tuple(sorted((path[i], path[i + 1]))))
    registration = sum(link_cost(deployment, a, b) for a, b in sorted(edges))
    return PlanCost(
        transfer=transfer_in + transfer_out, registration=registration
    )
