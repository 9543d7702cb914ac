"""The placement compiler — an optimisation pass over the program pipeline.

Slotted into ``WorkloadProgram.source() -> compile()``: compilation
prices every candidate rendezvous for each admitted query against the
deployment's architecture graph and the replay's workload statistics,
then lowers the winning candidate to an explicit routing table
(:class:`~repro.placement.plan.PlacementPlan`) that registration
executes instead of the paper's split-at-every-divergence heuristic.

Pass ordering, per query:

1. **resolve** — build the root correlation operator against the
   deployment's advertisements and map every sensor to its hosting
   node (identified subscriptions only: an abstract one's slots are
   whatever is advertised at its admission, and a plan is keyed on
   fixed sensor sets);
2. **enumerate** — candidate rendezvous nodes are exactly the nodes of
   the union of tree paths user -> host (the query's Steiner tree; any
   node off it is dominated by its projection onto it);
3. **price** — :func:`~repro.placement.cost.price_rendezvous` for every
   candidate; the paper heuristic's natural divergence node is always
   among them, so the argmin never models worse than the paper;
4. **select** — argmin by ``(total cost, node id)``: the node-id
   tie-break keeps the choice deterministic across processes;
5. **lower** — emit the hop table: the full operator travels
   user -> rendezvous (full-correlation gate on every trunk link), and
   is fissioned per branch below the rendezvous (the paper's
   progressive split, relocated).

Determinism: costs are closed-form arithmetic over the replay
(:class:`~repro.placement.stats.WorkloadStats`), paths are unique on
the overlay tree, every iteration is sorted — no RNG stream is ever
consulted, so plans are bit-identical in every process.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

from ..model.operators import CorrelationOperator, root_operator
from ..model.subscriptions import IdentifiedSubscription
from ..network.routing import RoutingTable
from ..network.topology import Deployment
from .cost import price_rendezvous
from .plan import PlacementPlan, PlanHop, sensor_key
from .stats import WorkloadStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.events import SimpleEvent


def _natural_rendezvous(
    user_node: str, hosts: Sequence[str], tree_path
) -> str:
    """The paper heuristic's gate: the deepest node shared by every
    user -> host path (where the first split would happen)."""
    paths = [tree_path(user_node, host) for host in hosts]
    rendezvous = user_node
    for depth in range(min(len(p) for p in paths)):
        step = {p[depth] for p in paths}
        if len(step) != 1:
            break
        rendezvous = paths[0][depth]
    return rendezvous


def lower_plan(
    operator: CorrelationOperator,
    user_node: str,
    rendezvous: str,
    host_of: Mapping[str, str],
    tree_path,
) -> tuple[PlanHop, ...]:
    """Emit the routing table for gating ``operator`` at ``rendezvous``."""
    all_key = sensor_key(operator.sensors)
    hops: list[PlanHop] = []
    trunk = tree_path(user_node, rendezvous)
    for i in range(len(trunk) - 1):
        hops.append(PlanHop(trunk[i], all_key, ((trunk[i + 1], all_key),)))
    # Below the rendezvous: fission per branch, exactly where each
    # sensor's tree path continues.
    sensors_at: dict[str, set[str]] = {}
    next_of: dict[tuple[str, str], str | None] = {}
    for sensor_id in sorted(operator.sensors):
        path = tree_path(rendezvous, host_of[sensor_id])
        for i, node in enumerate(path):
            sensors_at.setdefault(node, set()).add(sensor_id)
            next_of[(node, sensor_id)] = path[i + 1] if i + 1 < len(path) else None
    for node in sorted(sensors_at):
        piece = sensors_at[node]
        targets: dict[str, set[str]] = {}
        for sensor_id in sorted(piece):
            nxt = next_of[(node, sensor_id)]
            if nxt is not None:
                targets.setdefault(nxt, set()).add(sensor_id)
        if targets:
            hops.append(
                PlanHop(
                    node,
                    sensor_key(piece),
                    tuple(
                        (neighbor, sensor_key(targets[neighbor]))
                        for neighbor in sorted(targets)
                    ),
                )
            )
    return tuple(hops)


def compile_query(
    deployment: Deployment,
    operator: CorrelationOperator,
    user_node: str,
    host_of: Mapping[str, str],
    stats: WorkloadStats,
    tree_path,
    sub_id: str,
) -> PlacementPlan:
    """Pick and lower the cheapest rendezvous for one query."""
    hosts = sorted({host_of[s] for s in operator.sensors})
    candidates = sorted(
        {node for host in hosts for node in tree_path(user_node, host)}
    )
    costs = {
        candidate: price_rendezvous(
            deployment, operator, user_node, candidate, host_of, stats, tree_path
        ).total
        for candidate in candidates
    }
    natural = _natural_rendezvous(user_node, hosts, tree_path)
    best = min(candidates, key=lambda r: (costs[r], r))
    return PlacementPlan(
        sub_id=sub_id,
        user_node=user_node,
        rendezvous=best,
        hops=lower_plan(operator, user_node, best, host_of, tree_path),
        cost=costs[best],
        paper_cost=costs[natural],
    )


def compile_placement(
    deployment: Deployment,
    admissions: Iterable,
    events: Iterable["SimpleEvent"],
) -> dict[str, PlacementPlan]:
    """Plans for every admission of a compiled program.

    ``admissions`` are duck-typed ``(sub_id, node_id, subscription)``
    records (:class:`repro.workload.program.Admission`).  Queries whose
    sensors are absent from the deployment get no plan — registration
    drops them exactly as the unplanned path would.
    """
    stats = WorkloadStats(events)
    host_of = {s.sensor_id: s.node_id for s in deployment.sensors}
    tree_path = RoutingTable(deployment.graph).path

    plans: dict[str, PlacementPlan] = {}
    for admission in admissions:
        subscription = admission.subscription
        if not isinstance(subscription, IdentifiedSubscription):
            raise ValueError(
                "compiled placement requires identified subscriptions; "
                f"{admission.sub_id!r} is abstract (its slots hold the "
                "sensors advertised when it is admitted, which churn can "
                "change after compilation, and a plan is keyed on fixed "
                "sensor sets)"
            )
        operator = root_operator(
            subscription, admission.node_id, deployment.advertisements
        )
        if operator is None:
            continue
        plans[admission.sub_id] = compile_query(
            deployment,
            operator,
            admission.node_id,
            host_of,
            stats,
            tree_path,
            sub_id=subscription.sub_id,
        )
    return plans
