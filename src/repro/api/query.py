"""The fluent query builder of the live-session API.

A :class:`Query` accumulates range clauses plus temporal/spatial
correlation constraints and compiles to the reproduction's model
objects — an :class:`~repro.model.subscriptions.IdentifiedSubscription`
when every clause names a concrete sensor, an
:class:`~repro.model.subscriptions.AbstractSubscription` when every
clause names an attribute *type*.  Builders are immutable: every fluent
call returns a new query, so partially built queries can be shared and
extended without aliasing surprises::

    base = Query().within(5.0)
    freeze = base.where("s0001", -5.0, 5.0).where("s0002", -10.0, 10.0)
    storm = (
        base.where("wind_speed", 12.0, 40.0)
        .where("relative_humidity", 85.0, 100.0)
        .near(Location(10.0, 20.0), delta_l=200.0)
    )

Compilation (``Query.build``) needs a deployment for name resolution —
normally supplied by :meth:`repro.api.Session.submit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..model import checks
from ..model.filters import AbstractFilter, IdentifiedFilter, SimpleFilter
from ..model.intervals import Interval
from ..model.locations import CircleRegion, Location, Region, bounding_rect
from ..model.subscriptions import (
    PAPER_DELTA_T,
    UNBOUNDED,
    AbstractSubscription,
    IdentifiedSubscription,
    Subscription,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.topology import Deployment

class QueryError(ValueError):
    """A query cannot compile against the session's deployment."""


@dataclass(frozen=True, slots=True)
class _Clause:
    """One range clause, not yet classified as sensor- or type-targeted."""

    target: str
    interval: Interval


@dataclass(frozen=True)
class Query:
    """Immutable fluent builder for correlated range queries.

    ``where`` accepts either a sensor id (concrete/identified clause) or
    an attribute type name (abstract clause); classification happens at
    build time against the deployment, and mixing the two flavours in
    one query is rejected.  ``within`` sets the temporal correlation
    distance delta_t, ``near`` the spatial constraint of abstract
    queries (region + delta_l).
    """

    name: str | None = None
    clauses: tuple[_Clause, ...] = ()
    delta_t: float | None = None
    delta_l: float = UNBOUNDED
    region: Region | None = None

    # ------------------------------------------------------------------
    # fluent surface
    # ------------------------------------------------------------------
    def named(self, name: str) -> "Query":
        """Set the subscription id (otherwise the session generates one)."""
        return replace(self, name=name)

    def where(self, target: str, lo: float, hi: float) -> "Query":
        """Add a range clause over a sensor id or an attribute type."""
        checks.real(self, error=QueryError, lo=lo, hi=hi)
        if lo > hi:
            raise QueryError(f"empty range [{lo:g}, {hi:g}] for {target!r}")
        if any(c.target == target for c in self.clauses):
            raise QueryError(f"duplicate clause for {target!r}")
        return replace(
            self, clauses=self.clauses + (_Clause(target, Interval(lo, hi)),)
        )

    def within(self, delta_t: float) -> "Query":
        """Require all members within ``delta_t`` of the latest one."""
        checks.positive(self, error=QueryError, delta_t=delta_t)
        return replace(self, delta_t=delta_t)

    def near(
        self,
        where: Location | Region,
        delta_l: float = UNBOUNDED,
    ) -> "Query":
        """Constrain an abstract query spatially.

        ``where`` is either a :class:`Region` (used as the query's
        region ``L`` verbatim) or a :class:`Location` — then the region
        becomes the open ``delta_l``-disc around it (sensors further
        than ``delta_l`` from the point could never pairwise-correlate
        with ones at it anyway).  ``delta_l`` is the pairwise spatial
        correlation distance; omit it to bound the region only.
        """
        checks.positive_or_inf(self, error=QueryError, delta_l=delta_l)
        if isinstance(where, Location):
            if math.isinf(delta_l):
                raise QueryError(
                    "near(location) needs a finite delta_l to derive a region; "
                    "pass a Region explicitly for unbounded correlation"
                )
            region: Region = CircleRegion(where, delta_l)
        elif isinstance(where, Region):
            region = where
        else:
            raise QueryError(f"near() needs a Location or Region, got {where!r}")
        return replace(self, region=region, delta_l=delta_l)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def build(self, deployment: "Deployment", sub_id: str | None = None) -> Subscription:
        """Compile to a model subscription against ``deployment``.

        Each clause target is resolved against the deployment: a known
        sensor id makes an identified clause (the filter attribute is
        the sensor's measured attribute), a known attribute type makes
        an abstract clause.  All clauses must agree on the flavour.
        """
        if not self.clauses:
            raise QueryError("a query needs at least one where() clause")
        name = sub_id if sub_id is not None else self.name
        if name is None:
            raise QueryError("query has no name; use .named() or submit via a Session")
        delta_t = self.delta_t if self.delta_t is not None else PAPER_DELTA_T
        placements = {p.sensor_id: p for p in deployment.sensors}
        attributes = {p.attribute.name for p in deployment.sensors}
        sensor_clauses = [c for c in self.clauses if c.target in placements]
        abstract_clauses = [c for c in self.clauses if c.target in attributes]
        unknown = [
            c.target
            for c in self.clauses
            if c.target not in placements and c.target not in attributes
        ]
        if unknown:
            raise QueryError(
                f"unknown targets {unknown}: neither deployed sensor ids "
                "nor attribute types of this deployment"
            )
        if sensor_clauses and abstract_clauses:
            raise QueryError(
                "cannot mix sensor-targeted and attribute-typed clauses: "
                f"sensors {[c.target for c in sensor_clauses]} vs "
                f"attributes {[c.target for c in abstract_clauses]}"
            )
        if sensor_clauses:
            if self.region is not None or not math.isinf(self.delta_l):
                raise QueryError(
                    "near() applies to abstract (attribute-typed) queries only"
                )
            return IdentifiedSubscription(
                name,
                (
                    IdentifiedFilter(
                        c.target,
                        SimpleFilter(
                            placements[c.target].attribute.name, c.interval
                        ),
                    )
                    for c in sensor_clauses
                ),
                delta_t,
            )
        region = self.region
        if region is None:
            # Unconstrained abstract queries span the whole deployment.
            region = bounding_rect(
                (p.location for p in deployment.sensors), margin=1.0
            )
        return AbstractSubscription(
            name,
            (
                AbstractFilter(SimpleFilter(c.target, c.interval), region)
                for c in abstract_clauses
            ),
            delta_t,
            self.delta_l,
        )
