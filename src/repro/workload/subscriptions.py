"""Subscription workload generation (Section VI-A).

"Subscriptions are generated by creating ranges over 5 attributes,
centered around the median values in the corresponding stream, with an
offset drawn from a Pareto distribution with a skew factor of 1.  We
target all locations with the same number of subscriptions."

Each subscription targets one base-station group (locations are evenly
covered round-robin) and picks its attribute subset (3-5 attributes in
the small-scale experiment, all 5 elsewhere).  For every chosen sensor
the filter range sits at ``median + offset`` where the *offset* is the
Pareto(skew = 1) draw the paper describes (random sign): most
subscriptions cluster near the median, a heavy tail strays far.  Range
half-widths vary log-normally around a base expressed in units of the
stream's spread, calibrated to the paper's "medium selective
subscriptions ... each one has a minimum number of matching events".

The displaced-centre mosaic is what makes *set* subsumption genuinely
stronger than pairwise coverage: narrow ranges are jointly covered by
unions of shifted wider ones — with identical centres, coverage by a
union degenerates to coverage by a single subscription and the
Filter-Split-Forward filter would have nothing to add.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model import checks
from ..model.filters import IdentifiedFilter, SimpleFilter
from ..model.intervals import Interval
from ..model.subscriptions import PAPER_DELTA_T, IdentifiedSubscription
from ..network.topology import Deployment, SensorPlacement


# The Pareto(skew = 1) offset draw, its scale in units of the stream's
# robust spread, and the sigma of the log-normal half-width multiplier.
PARETO_SKEW = 1.0
OFFSET_SCALE = 0.5
WIDTH_SIGMA = 0.45


@dataclass(frozen=True, slots=True)
class SubscriptionWorkloadConfig:
    """Knobs of the subscription generator.

    Widths/offsets are expressed in units of each stream's robust
    spread, so one configuration means the same selectivity for
    humidity (0-100 %) as for temperature (degrees).

    ``span_groups`` lets subscription ``i`` draw its sensors from the
    union of ``span_groups`` consecutive base-station groups (starting
    at group ``i % n_groups``) instead of exactly one — cross-group
    correlations are what give the placement compiler routing freedom.
    ``group_width_scale`` multiplies the half-width of every filter on a
    group-``g`` sensor by ``group_width_scale[g % len]`` (pure value
    scaling, no extra random draws): alternating wide/narrow groups
    build the skewed workloads of the placement figures.  Both default
    to the historical behaviour byte-for-byte (``1`` / ``()``).
    """

    n_subscriptions: int
    attrs_min: int = 5
    attrs_max: int = 5
    delta_t: float = PAPER_DELTA_T
    base_half_width: float = 2.0
    seed: int = 42
    span_groups: int = 1
    group_width_scale: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        checks.count(self, "n_subscriptions", "seed")
        checks.positive_count(self, "attrs_min", "attrs_max", "span_groups")
        checks.positive(self, "delta_t", "base_half_width", "group_width_scale")
        if self.attrs_min > self.attrs_max:
            raise ValueError(
                "SubscriptionWorkloadConfig.attrs_min must be <= attrs_max "
                f"({self.attrs_max}), got {self.attrs_min!r}"
            )


@dataclass(frozen=True, slots=True)
class PlacedSubscription:
    """A generated subscription plus the node where its user resides."""

    node_id: str
    subscription: IdentifiedSubscription


def _range_for(
    placement: SensorPlacement,
    median: float,
    spread: float,
    rng: np.random.Generator,
    config: SubscriptionWorkloadConfig,
    width_scale: float = 1.0,
) -> IdentifiedFilter:
    offset = float(rng.pareto(PARETO_SKEW)) * OFFSET_SCALE * spread
    if rng.random() < 0.5:
        offset = -offset
    center = median + offset
    half_width = (
        config.base_half_width
        * width_scale
        * float(rng.lognormal(0.0, WIDTH_SIGMA))
        * spread
    )
    domain = placement.attribute.domain
    interval = Interval(center - half_width, center + half_width).clamp(domain)
    if interval.is_empty:
        # The heavy Pareto tail pushed the whole range outside the
        # physical domain; pin it to the nearest domain edge so the
        # subscription stays satisfiable (it will simply match rarely).
        edge = domain.lo if center < domain.lo else domain.hi
        interval = Interval(edge, edge).widen(half_width).clamp(domain)
    return IdentifiedFilter(
        placement.sensor_id, SimpleFilter(placement.attribute.name, interval)
    )


def generate_subscriptions(
    deployment: Deployment,
    medians: dict[str, float],
    config: SubscriptionWorkloadConfig,
    spreads: dict[str, float] | None = None,
) -> list[PlacedSubscription]:
    """The full subscription workload, in registration order.

    Deterministic in ``(deployment.seed, config.seed)``.  Subscription
    ``i`` targets group ``i % n_groups`` (even coverage), is owned by a
    user on a uniformly drawn relay node, and draws ``k`` attributes
    uniformly from the deployment's attribute set.  ``spreads`` default
    to 5% of each attribute's domain when not supplied.
    """
    rng = np.random.default_rng(  # repro-lint: ignore[rng-stream] -- pre-derive_seed arithmetic stream, pinned by figures
        (deployment.seed + 1) * 1_000_003 + config.seed
    )
    groups = sorted(deployment.groups)
    relays = deployment.user_nodes
    scale_of: dict[str, float] = {}
    if config.group_width_scale:
        for gi, group in enumerate(groups):
            for member in deployment.sensors_of_group(group):
                scale_of[member.sensor_id] = config.group_width_scale[
                    gi % len(config.group_width_scale)
                ]
    out: list[PlacedSubscription] = []
    span = min(config.span_groups, len(groups))
    for i in range(config.n_subscriptions):
        gi = i % len(groups)
        members: list[SensorPlacement] = []
        for j in range(span):
            members.extend(
                deployment.sensors_of_group(groups[(gi + j) % len(groups)])
            )
        k = int(rng.integers(config.attrs_min, config.attrs_max + 1))
        k = min(k, len(members))
        chosen_idx = rng.choice(len(members), size=k, replace=False)
        chosen = sorted(
            (members[j] for j in chosen_idx), key=lambda p: p.sensor_id
        )
        filters = []
        for placement in chosen:
            domain = placement.attribute.domain
            spread = (
                spreads[placement.sensor_id]
                if spreads is not None
                else (domain.hi - domain.lo) * 0.05
            )
            filters.append(
                _range_for(
                    placement,
                    medians[placement.sensor_id],
                    spread,
                    rng,
                    config,
                    width_scale=scale_of.get(placement.sensor_id, 1.0),
                )
            )
        node_id = relays[int(rng.integers(0, len(relays)))]
        out.append(
            PlacedSubscription(
                node_id,
                IdentifiedSubscription(f"q{i:05d}", filters, config.delta_t),
            )
        )
    return out

