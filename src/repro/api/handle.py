"""Subscription lifecycle handles.

A :class:`QueryHandle` is what :meth:`repro.api.Session.submit`
returns: the user-side view of one live subscription.  It exposes the
delivered results as structured :class:`ComplexMatch` records (the
per-instance grouping the raw delivery log flattens away), per-query
traffic attribution (:class:`QueryStats`), and — the lifecycle part —
``cancel()``, which starts the network-wide reverse-path operator
removal and fences the query out of the oracle's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..matching.engine import replay
from ..model.events import SimpleEvent
from ..model.operators import CorrelationOperator
from ..model.subscriptions import Subscription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session


@dataclass(frozen=True)
class ComplexMatch:
    """One delivered match instance, reconstructed user-side.

    ``trigger`` is the maximum-timestamp member identifying the
    instance; ``events`` are every delivered simple event participating
    in a valid combination anchored at that trigger (timestamp-sorted).
    """

    sub_id: str
    trigger: SimpleEvent
    events: tuple[SimpleEvent, ...]

    @property
    def timestamp(self) -> float:
        """The instance's event time ``t = max_i t_i``."""
        return self.trigger.timestamp

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True, slots=True)
class QueryStats:
    """Per-query lifecycle accounting.

    ``registration_units`` / ``cancellation_units`` are the
    subscription-channel data units the network spent placing /
    retiring this query (zero while the respective phase has not
    settled); ``delivered_events`` and ``complex_deliveries`` come from
    the delivery log.
    """

    sub_id: str
    active: bool
    accepted: bool
    registration_units: int
    cancellation_units: int
    delivered_events: int
    complex_deliveries: int
    matches: int


class QueryHandle:
    """The live view of one submitted query.

    Handles stay usable after cancellation: the delivered history
    remains readable, only new deliveries stop.  Resubmitting the same
    query id starts a fresh incarnation with an empty log — from then
    on the old handle reads the new incarnation's (reset) history.
    """

    def __init__(
        self,
        session: "Session",
        subscription: Subscription,
        node_id: str,
        registration_units: int,
        accepted: bool,
    ) -> None:
        self._session = session
        self.subscription = subscription
        self.node_id = node_id
        self._registration_units = registration_units
        self._cancellation_units = 0
        self._accepted = accepted
        self._active = accepted
        self.cancelled_at: float | None = None
        # matches() replays the final local check over the delivered
        # history; the log only ever grows within one incarnation, so
        # the reconstruction is memoised on (log generation, delivered
        # count) — the generation ticks when an id reuse resets the log
        # (stats() reads it too, and must stay cheap to poll).
        self._matches_cache: tuple[tuple[int, int], list[ComplexMatch]] | None = None
        # stats() freezes at cancellation: the accounting of a retired
        # query must not keep accruing from result streams that were
        # still in flight when the teardown was issued.
        self._final_stats: QueryStats | None = None

    # ------------------------------------------------------------------
    @property
    def sub_id(self) -> str:
        return self.subscription.sub_id

    @property
    def active(self) -> bool:
        """Whether the query is currently placed (accepted, not cancelled)."""
        return self._active

    @property
    def accepted(self) -> bool:
        """False when registration was dropped for absent sources."""
        return self._accepted

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def events(self) -> list[SimpleEvent]:
        """Every delivered simple event, in (timestamp, key) order."""
        delivered = self._session.network.delivery.delivered(self.sub_id)
        return sorted(delivered.values(), key=lambda e: (e.timestamp, e.key))

    def matches(self) -> list[ComplexMatch]:
        """The delivered match instances, as structured records.

        Replays the matching semantics over the delivered subset (the
        same reconstruction the recall metric performs, on the same
        offline matcher, :func:`repro.matching.engine.replay`): an
        instance exists for every delivered event that anchors a valid
        complex event within the delivered events.  An instance's
        ``events`` are the members of valid combinations *containing*
        the trigger (``OperatorMatcher.instance_members``) — a spatially
        disjoint combination that merely shares the trigger's window is
        a different instance and stays out of the record.  Instances are
        returned in trigger (timestamp, key) order.
        """
        delivery = self._session.network.delivery
        delivered = delivery.delivered(self.sub_id)
        cache_key = (delivery.generation(self.sub_id), len(delivered))
        if self._matches_cache is not None and self._matches_cache[0] == cache_key:
            return list(self._matches_cache[1])
        operator = self._root_operator() if delivered else None
        if operator is None:
            self._matches_cache = (cache_key, [])
            return []
        matcher = replay(operator, delivered.values())
        out: list[ComplexMatch] = []
        for trigger in sorted(
            delivered.values(), key=lambda e: (e.timestamp, e.key)
        ):
            found = matcher.instance_members(trigger)
            if found is None:
                continue
            members = {e.key: e for events in found.values() for e in events}
            out.append(
                ComplexMatch(
                    self.sub_id,
                    trigger,
                    tuple(
                        sorted(
                            members.values(), key=lambda e: (e.timestamp, e.key)
                        )
                    ),
                )
            )
        self._matches_cache = (cache_key, out)
        return list(out)

    def stats(self) -> QueryStats:
        """Lifecycle accounting snapshot.

        Live while the query is placed; **frozen at the cancellation
        instant** once :meth:`cancel` succeeds — result streams still
        in flight at the teardown (or a later incarnation reusing the
        id) never accrue to a retired query's accounting.  The
        delivered *history* stays readable live via :meth:`events` /
        :meth:`matches`.
        """
        if self._final_stats is not None:
            return self._final_stats
        delivery = self._session.network.delivery
        return QueryStats(
            sub_id=self.sub_id,
            active=self._active,
            accepted=self._accepted,
            registration_units=self._registration_units,
            cancellation_units=self._cancellation_units,
            delivered_events=delivery.delivered_count(self.sub_id),
            complex_deliveries=delivery.complex_deliveries[self.sub_id],
            matches=len(self.matches()),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def cancel(self, settle: bool = True) -> bool:
        """Retire the query from the whole network.

        Starts the reverse-path operator removal (see
        ``docs/ARCHITECTURE.md``, "Query lifecycle"); with ``settle``
        (the default) the simulator runs to quiescence so the teardown
        reaches every node before returning, and the subscription-channel
        units it cost are recorded in :meth:`stats`.  Idempotent: a
        second call (or cancelling a dropped query) returns False.
        """
        if not self._active:
            return False
        cancelled, units = self._session._cancel(self, settle=settle)
        if cancelled:
            self._active = False
            self._cancellation_units = units
            self.cancelled_at = self._session.cancellations[self.sub_id]
            self._final_stats = self.stats()
        return cancelled

    # ------------------------------------------------------------------
    def _root_operator(self) -> CorrelationOperator | None:
        from ..metrics.oracle import oracle_operator  # local: avoid cycle

        return oracle_operator(self.subscription, self._session.deployment)

