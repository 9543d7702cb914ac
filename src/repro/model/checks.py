"""One input boundary: the number checks of every public config and builder.

A rule checks the named fields of ``owner`` and any keyword values, and
raises ``error`` as ``Class.field must be ..., got ...``.  A ``bool`` is
never a number, and a tuple is checked element by element.  Cross-field
rules (``min <= max``, ``end > start``) stay with their classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable


@dataclass(frozen=True)
class Rule:
    """A number rule: ``ok`` judges each value as a float; ``text`` says
    what ``ok`` wants in a refusal."""

    text: str
    ok: Callable[[float], bool]
    integral: bool = False

    def __call__(
        self,
        owner: object,
        *names: str,
        error: type[ValueError] = ValueError,
        **values: object,
    ) -> None:
        kind = Integral if self.integral else Real
        values = {**{name: getattr(owner, name) for name in names}, **values}
        for name, value in values.items():
            for item in value if isinstance(value, tuple) else (value,):
                number = None if isinstance(item, bool) else item
                if not (isinstance(number, kind) and self.ok(float(number))):
                    where = f"{type(owner).__name__}.{name}"
                    raise error(f"{where} must be {self.text}, got {value!r}")


real = Rule("a number (not NaN)", lambda v: not math.isnan(v))
finite = Rule("finite", math.isfinite)
positive = Rule("positive and finite", lambda v: 0 < v < math.inf)
positive_or_inf = Rule("positive (or inf)", lambda v: v > 0)
non_negative = Rule("finite and >= 0", lambda v: 0 <= v < math.inf)
probability = Rule("in [0, 1]", lambda v: 0 <= v <= 1)
count = Rule("an integer >= 0", lambda v: v >= 0, integral=True)
positive_count = Rule("an integer >= 1", lambda v: v >= 1, integral=True)
