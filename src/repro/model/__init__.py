"""The publish/subscribe data model of Section IV-A.

Everything the five evaluated systems share: intervals, locations,
attribute types, events, advertisements, filters, subscriptions,
correlation operators and the complex-event matching semantics.
"""

from .advertisements import Advertisement, AdvertisementTable
from .attributes import (
    AMBIENT_TEMPERATURE,
    AttributeType,
    RELATIVE_HUMIDITY,
    SENSORSCOPE_ATTRIBUTES,
    SURFACE_TEMPERATURE,
    WIND_DIRECTION,
    WIND_SPEED,
)
from .events import ComplexEvent, EventKey, MatchInstance, SimpleEvent
from .filters import AbstractFilter, IdentifiedFilter, SimpleFilter
from .intervals import (
    EMPTY_INTERVAL,
    FULL_INTERVAL,
    Interval,
    union_covers,
)
from .locations import (
    CircleRegion,
    EVERYWHERE,
    EverywhereRegion,
    Location,
    RectRegion,
    Region,
    UnionRegion,
    bounding_rect,
    spatial_span,
)
from .matching import (
    build_complex_events,
    complex_event_matches,
    instance_exists,
    match_at_trigger,
    matches_involving,
    window_candidates,
)
from .operators import (
    CorrelationOperator,
    Slot,
    operator_from_abstract,
    operator_from_identified,
    root_operator,
)
from .subscriptions import (
    AbstractSubscription,
    IdentifiedSubscription,
    PAPER_DELTA_T,
    Subscription,
    UNBOUNDED,
)

__all__ = [
    "AMBIENT_TEMPERATURE",
    "AbstractFilter",
    "AbstractSubscription",
    "Advertisement",
    "AdvertisementTable",
    "AttributeType",
    "CircleRegion",
    "ComplexEvent",
    "CorrelationOperator",
    "EMPTY_INTERVAL",
    "EVERYWHERE",
    "EventKey",
    "EverywhereRegion",
    "FULL_INTERVAL",
    "IdentifiedFilter",
    "IdentifiedSubscription",
    "Interval",
    "Location",
    "MatchInstance",
    "PAPER_DELTA_T",
    "RELATIVE_HUMIDITY",
    "RectRegion",
    "Region",
    "SENSORSCOPE_ATTRIBUTES",
    "SURFACE_TEMPERATURE",
    "SimpleEvent",
    "SimpleFilter",
    "Slot",
    "Subscription",
    "UNBOUNDED",
    "UnionRegion",
    "WIND_DIRECTION",
    "WIND_SPEED",
    "bounding_rect",
    "build_complex_events",
    "complex_event_matches",
    "instance_exists",
    "match_at_trigger",
    "matches_involving",
    "operator_from_abstract",
    "operator_from_identified",
    "root_operator",
    "spatial_span",
    "union_covers",
    "window_candidates",
]
