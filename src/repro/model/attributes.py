"""Attribute types and value domains.

Section IV-A models each sensor as producing data of a fixed *attribute
type* ``a_d`` from a set ``A``, with values from a domain ``D_a``.  The
experiments use the five SensorScope measurement types.  The types
below carry realistic value domains and units for those.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import Interval


@dataclass(frozen=True, slots=True)
class AttributeType:
    """A sensor measurement type with its value domain.

    ``name`` is the identity (two attribute types are interchangeable iff
    their names match); ``domain`` bounds every legal measurement and is
    used to clip synthetic streams and generated filter ranges; ``unit``
    is informational.
    """

    name: str
    domain: Interval
    unit: str = ""

    def __post_init__(self) -> None:
        if self.domain.is_empty:
            raise ValueError(f"attribute {self.name!r} has an empty domain")


# ---------------------------------------------------------------------------
# The five SensorScope / Grand St. Bernard measurement types (Section VI-A)
# ---------------------------------------------------------------------------
AMBIENT_TEMPERATURE = AttributeType(
    "ambient_temperature", Interval(-40.0, 40.0), unit="degC"
)
SURFACE_TEMPERATURE = AttributeType(
    "surface_temperature", Interval(-45.0, 55.0), unit="degC"
)
RELATIVE_HUMIDITY = AttributeType("relative_humidity", Interval(0.0, 100.0), unit="%")
WIND_SPEED = AttributeType("wind_speed", Interval(0.0, 40.0), unit="m/s")
WIND_DIRECTION = AttributeType("wind_direction", Interval(0.0, 360.0), unit="deg")

SENSORSCOPE_ATTRIBUTES: tuple[AttributeType, ...] = (
    AMBIENT_TEMPERATURE,
    SURFACE_TEMPERATURE,
    RELATIVE_HUMIDITY,
    WIND_SPEED,
    WIND_DIRECTION,
)
