"""Seeded transport fault injection — link loss/delay and broker outages.

The paper's evaluation assumes a perfectly reliable transport; related
WSN work (Mitici et al., Lai et al.) treats loss and whole-base-station
failures as the operating regime.  A :class:`FaultPlan` is the frozen,
hashable description of that regime for one run:

* per-link fault models (:class:`LinkFault`: drop probability plus a
  fixed-delay/jitter pair added to the base link latency);
* broker outage schedules with **correlated failure domains**
  (:class:`OutageWindow`: every broker in the domain crashes at
  ``start`` and recovers at ``end``, together).

Plans are pure data: all randomness is drawn at send time from a
simulator stream named after ``plan.seed`` (derived via
:func:`repro.seeding.derive_seed`), so runs stay PYTHONHASHSEED-
independent and sharded == serial — the single-threaded agenda fixes
the draw order.  ``FaultPlan.none()`` is falsy and the network then
bypasses the fault lane entirely, byte-identical to a plan-less run.

Outage times are on the **program clock** (0 = replay start), exactly
like churn transitions and lifecycle edges; compilation shifts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..model import checks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import Deployment


@dataclass(frozen=True, slots=True)
class LinkFault:
    """One directed link's misbehaviour.

    ``drop`` is the per-transmission loss probability; ``delay`` a
    deterministic extra transit time and ``jitter`` the width of a
    uniform random addition on top — both added to the network's base
    ``latency``.  The all-zero fault (the default) is falsy.
    """

    drop: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        checks.probability(self, "drop")
        checks.non_negative(self, "delay", "jitter")

    def __bool__(self) -> bool:
        return bool(self.drop or self.delay or self.jitter)


@dataclass(frozen=True, slots=True)
class OutageWindow:
    """A correlated broker failure: every node in ``domain`` is down on
    ``(start, end]`` of the program clock (``end=inf``: never recovers).

    Crash and recovery edges run at agenda priority 1, the same
    tie-break sensor churn uses: a reading stamped at exactly ``start``
    is published before the crash, one stamped at exactly ``end`` is
    published before the recovery (and is therefore lost) — which is
    precisely the half-open window the oracle fences.
    """

    domain: tuple[str, ...]
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError("an outage needs a non-empty failure domain")
        checks.non_negative(self, "start")
        checks.positive_or_inf(self, "end")
        if self.end <= self.start:
            raise ValueError(
                f"outage must end after it starts, got "
                f"[{self.start:g}, {self.end:g}]"
            )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """The complete fault description of one run — frozen and hashable,
    so scenarios carrying a plan stay valid memo keys for the sharded
    runner.

    ``default`` applies to every directed link without an explicit
    entry in ``links``; ``seed`` names the simulator stream all drop
    and jitter draws come from (independent of every model stream).
    """

    default: LinkFault = LinkFault()
    links: tuple[tuple[str, str, LinkFault], ...] = ()
    outages: tuple[OutageWindow, ...] = ()
    seed: int = 97

    def __post_init__(self) -> None:
        checks.count(self, "seed")

    @classmethod
    def none(cls) -> "FaultPlan":
        """The null plan: falsy, and the network skips the fault lane."""
        return cls()

    def __bool__(self) -> bool:
        return bool(
            self.default
            or any(fault for _, _, fault in self.links)
            or self.outages
        )

    def link_fault(self, src: str, dst: str) -> LinkFault:
        """The fault model of the directed link ``src -> dst``."""
        for s, d, fault in self.links:
            if s == src and d == dst:
                return fault
        return self.default

    def validate_against(self, deployment: "Deployment") -> None:
        """Reject outage domains naming nodes outside the deployment."""
        known = set(deployment.graph)
        for window in self.outages:
            unknown = sorted(set(window.domain) - known)
            if unknown:
                raise ValueError(
                    f"outage domain names unknown nodes {unknown}"
                )
