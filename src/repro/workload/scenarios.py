"""The four experiment scenarios of Section VI, scale-aware.

Node counts always match the paper; subscription counts and replay
length scale with ``REPRO_SCALE`` (default 0.1) so the full figure
suite runs in minutes on a laptop.  ``scale=1.0`` reproduces the
paper's subscription axis (100..1000).  Shapes — orderings, margins,
crossovers — are stable across scales; EXPERIMENTS.md records the scale
every published number was measured at.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from ..model import checks
from ..network.faults import FaultPlan, LinkFault
from ..network.reliability import ReliabilityConfig
from ..network.topology import (
    Deployment,
    large_network,
    large_sources,
    medium_scale,
    small_scale,
    tiered_small_scale,
)
from .program import QueryLifecycleConfig, WorkloadProgram
from .sensorscope import ChurnConfig, DynamicReplayConfig, ReplayConfig
from .subscriptions import SubscriptionWorkloadConfig

SCALE_ENV_VAR = "REPRO_SCALE"

SCALE_PRESETS: dict[str, float] = {
    "smoke": 0.05,  # fastest signal: 2-3 points per scenario
    "ci": 0.1,  # the default — full suite in minutes on one core
    "nightly": 0.4,  # the nightly sharded run (REPRO_WORKERS > 1)
    "full": 1.0,  # the paper's 100..1000 subscription axis
}
"""Named workload scales; ``REPRO_SCALE`` and the CLI's ``--scale``
accept either a preset name or a float in (0, 1]."""


def parse_scale(raw: str) -> float:
    """A preset name or float literal → validated scale factor."""
    if raw in SCALE_PRESETS:
        return SCALE_PRESETS[raw]
    scale = float(raw)
    if not 0 < scale <= 1:
        raise ValueError(
            f"scale must be a preset {sorted(SCALE_PRESETS)} or in (0, 1], "
            f"got {raw}"
        )
    return scale


def default_scale() -> float:
    """Workload scale factor, overridable via the environment."""
    raw = os.environ.get(SCALE_ENV_VAR)  # repro-lint: ignore[env-read] -- documented REPRO_SCALE knob, read once at experiment entry
    if raw is None:
        return SCALE_PRESETS["ci"]
    try:
        return parse_scale(raw)
    except ValueError as exc:
        raise ValueError(f"{SCALE_ENV_VAR}: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    """One experiment setting: deployment + workload axes.

    ``dynamic`` switches the scenario to the multi-day drifting replay;
    ``churn`` adds the leave/rejoin schedule, on either replay, that
    the network layer turns into retraction floods and re-floods;
    ``lifecycle`` adds the Poisson query admit/retire workload on top
    of the measured static prefix; ``faults``/``reliability`` run the
    whole scenario over the seeded unreliable transport with the
    ack/refresh layer optionally enabled.  ``placement`` selects the
    operator-placement mode (``"paper"`` heuristic vs the
    ``repro.placement`` compiler); ``span_groups`` /
    ``group_width_scale`` are the generator knobs that give the
    compiler routing freedom (cross-group queries, skewed
    selectivities); ``approach_keys`` restricts the measured approaches
    (``None`` = the usual registry set).  All are frozen config
    dataclasses, so scenarios stay hashable and picklable for the
    series runner's memo keys.
    """

    key: str
    title: str
    deployment_factory: Callable[[int], Deployment]
    paper_subscription_counts: tuple[int, ...]
    attrs_min: int = 5
    attrs_max: int = 5
    include_centralized: bool = False
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    dynamic: DynamicReplayConfig | None = None
    churn: ChurnConfig | None = None
    lifecycle: QueryLifecycleConfig | None = None
    faults: FaultPlan | None = None
    reliability: ReliabilityConfig | None = None
    seed: int = 0
    placement: str = "paper"
    span_groups: int = 1
    group_width_scale: tuple[float, ...] = ()
    approach_keys: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        checks.positive_count(self, "paper_subscription_counts", "span_groups")
        checks.positive_count(self, "attrs_min", "attrs_max")
        if self.attrs_min > self.attrs_max:
            raise ValueError(
                f"Scenario.attrs_min must be <= attrs_max ({self.attrs_max}), "
                f"got {self.attrs_min!r}"
            )
        checks.count(self, "seed")
        checks.positive(self, "group_width_scale")

    def deployment(self) -> Deployment:
        return self.deployment_factory(self.seed)

    def subscription_counts(self, scale: float | None = None) -> list[int]:
        """The measurement axis, scaled (at least 2 points, >= 5 subs)."""
        s = default_scale() if scale is None else scale
        counts = sorted({max(5, round(c * s)) for c in self.paper_subscription_counts})
        return counts

    def workload_config(self, n: int) -> SubscriptionWorkloadConfig:
        return SubscriptionWorkloadConfig(
            n_subscriptions=n,
            attrs_min=self.attrs_min,
            attrs_max=self.attrs_max,
            seed=self.seed + 17,
            span_groups=self.span_groups,
            group_width_scale=self.group_width_scale,
        )

    def program(self, max_subscriptions: int) -> WorkloadProgram:
        """The scenario as a :class:`WorkloadProgram` whose generated
        pool covers a static prefix of ``max_subscriptions`` — the
        runner measures prefixes of it via ``with_prefix``."""
        return WorkloadProgram(
            subscriptions=self.workload_config(max_subscriptions),
            replay=self.replay,
            dynamic=self.dynamic,
            churn=self.churn,
            lifecycle=self.lifecycle,
            faults=self.faults,
            reliability=self.reliability,
            placement=self.placement,
        )


_PAPER_AXIS_1000 = tuple(range(100, 1001, 100))
_PAPER_AXIS_900 = tuple(range(100, 901, 100))


SMALL = Scenario(
    key="small",
    title="Small scale (60 nodes, 50 sensors, 10 groups)",
    deployment_factory=small_scale,
    paper_subscription_counts=_PAPER_AXIS_1000,
    attrs_min=3,
    attrs_max=5,
)

MEDIUM = Scenario(
    key="medium",
    title="Medium scale (100 nodes, 50 sensors, 10 groups)",
    deployment_factory=medium_scale,
    paper_subscription_counts=_PAPER_AXIS_900,
    include_centralized=True,
)

LARGE_NETWORK = Scenario(
    key="large_network",
    title="Large scale #1 - network (200 nodes, 50 sensors, 10 groups)",
    deployment_factory=large_network,
    paper_subscription_counts=_PAPER_AXIS_900,
)

LARGE_SOURCES = Scenario(
    key="large_sources",
    title="Large scale #2 - sources (200 nodes, 100 sensors, 20 groups)",
    deployment_factory=large_sources,
    paper_subscription_counts=_PAPER_AXIS_900,
)

CHURN = Scenario(
    key="churn",
    title="Churn & burst (60 nodes, 2 drifting days, 25% of sensors cycling)",
    deployment_factory=small_scale,
    paper_subscription_counts=(100, 300, 500),
    attrs_min=3,
    attrs_max=5,
    dynamic=DynamicReplayConfig(days=2, rounds_per_day=18, day_seconds=240.0),
    churn=ChurnConfig(cycle_fraction=0.25),
)
"""The dynamic-workload family: the small-scale deployment under a
two-day drifting, Pareto-bursty replay where a quarter of the sensors
leaves and rejoins mid-campaign — the first scenario to exercise the
advertisement retraction/re-flood path and the churn-aware oracle."""

ADMIT_RETIRE = Scenario(
    key="admit_retire",
    title="Admit/retire (60 nodes, Poisson query lifecycle over a "
    "2-day replay, all five approaches)",
    deployment_factory=small_scale,
    paper_subscription_counts=(200,),
    attrs_min=3,
    attrs_max=5,
    include_centralized=True,
    dynamic=DynamicReplayConfig(days=2, rounds_per_day=18, day_seconds=240.0),
    lifecycle=QueryLifecycleConfig(admit_rate=0.05, hold=120.0),
)
"""The query-assignment family: a standing subscription prefix plus a
Poisson stream of admissions, each retired after an exponential hold —
the first scenario where the cancellation machinery (reverse-path
removal, ``UnsubscribeMessage`` teardown traffic, per-lifetime oracle
fences) is visible at figure scale.  Figures 15-16 sweep the admit
rate over this scenario."""

FAULTS = Scenario(
    key="faults",
    title="Unreliable transport (60 nodes, 10% link loss, ack/retransmit "
    "+ soft-state refresh, all five approaches)",
    deployment_factory=small_scale,
    paper_subscription_counts=(100,),
    attrs_min=3,
    attrs_max=5,
    include_centralized=True,
    faults=FaultPlan(default=LinkFault(drop=0.1), seed=97),
    reliability=ReliabilityConfig(),
)
"""The robustness family: the small-scale deployment where every
directed link drops 10% of transmissions.  The reliability layer acks
and retransmits control traffic and refreshes soft state periodically;
event traffic rides the lossy links unprotected, so recall measures
what the loss actually costs each approach.  Figures 17-18 sweep the
loss rate (reliability on/off) over this scenario."""

PLACEMENT = Scenario(
    key="placement",
    title="Placement (60 tiered nodes, cross-group queries, "
    "alternating wide/narrow groups, compiled vs paper placement)",
    deployment_factory=tiered_small_scale,
    paper_subscription_counts=(100, 300),
    attrs_min=3,
    attrs_max=5,
    span_groups=2,
    group_width_scale=(4.0, 0.02),
    approach_keys=("fsf", "operator_placement", "naive"),
)
"""The heterogeneous-architecture family: the small-scale deployment
with tiered node specs (motes at the edge, base-station group heads, a
cloud node at the backbone centre) and a skewed cross-group workload —
every query correlates two neighbouring groups, one with very wide
filters (a partial-match flood) and one with very narrow ones.  The
paper heuristic splits operators at the natural divergence node and
drowns in the wide group's partials; the cost-model compiler delays the
split toward the wide group's head, gating the flood at the edge.
Figures 19-20 measure both placements on this scenario.  Both lanes
hold FSF's recall at 100%, so the traffic axis is the only thing that
moves.  The figures run the static one-day replay, but compiled plans
also compose with a dynamic replay, sensor churn and a query
lifecycle: the compiler still prices the static graph, and a departure
fences the sensor's stored events at planned pieces as at any other,
until its rejoin."""

ALL_SCENARIOS: dict[str, Scenario] = {
    s.key: s
    for s in (
        SMALL,
        MEDIUM,
        LARGE_NETWORK,
        LARGE_SOURCES,
        CHURN,
        ADMIT_RETIRE,
        FAULTS,
        PLACEMENT,
    )
}
