"""Grid-pruned spatial combination search for finite ``delta_l``.

The reference implementation (:mod:`repro.model.matching`) decides
participation of each window candidate by filtering every other slot's
candidates with an exact distance test and backtracking over the
result — O(candidates²) distance evaluations per trigger before the
search even starts.

Here candidates are first bucketed into a coarse uniform grid with cell
size ``delta_l``.  Any pair closer than ``delta_l`` lies in the same or
an adjacent cell, so the 3×3 neighbourhood of a candidate's cell is a
complete superset of its admissible partners; only those few survive
the exact distance check.  The backtracking itself stays *exact* — the
grid only shrinks the lists it runs over, so the decision is identical
to the reference's, just reached after touching a constant-density
neighbourhood instead of every candidate.
"""

from __future__ import annotations

from math import floor
from typing import Sequence

from ..model.events import SimpleEvent
from ..model.locations import Location


class SlotGrid:
    """Uniform grid over one slot's window candidates (cell = delta_l)."""

    __slots__ = ("cell", "cells", "count")

    def __init__(self, cell: float, candidates: Sequence[SimpleEvent]) -> None:
        self.cell = cell
        self.cells: dict[tuple[int, int], list[SimpleEvent]] = {}
        self.count = len(candidates)
        for event in candidates:
            key = (floor(event.location.x / cell), floor(event.location.y / cell))
            self.cells.setdefault(key, []).append(event)

    def near(self, location: Location) -> list[SimpleEvent]:
        """Candidates strictly closer than ``delta_l`` to ``location``.

        Exact — the 3×3 cell neighbourhood is a superset of the open
        ``delta_l``-ball, and every member is distance-checked.
        """
        cx = floor(location.x / self.cell)
        cy = floor(location.y / self.cell)
        cells = self.cells
        out: list[SimpleEvent] = []
        limit = self.cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = cells.get((cx + dx, cy + dy))
                if not bucket:
                    continue
                for event in bucket:
                    if location.distance_to(event.location) < limit:
                        out.append(event)
        return out


def combination_exists(
    lists: Sequence[Sequence[SimpleEvent]], delta_l: float
) -> bool:
    """One event per list with pairwise spread < delta_l (exact search)."""
    order = sorted(range(len(lists)), key=lambda i: len(lists[i]))
    ordered = [lists[i] for i in order]
    chosen: list[SimpleEvent] = []

    def extend(i: int) -> bool:
        if i == len(ordered):
            return True
        for candidate in ordered[i]:
            location = candidate.location
            if all(
                location.distance_to(prev.location) < delta_l for prev in chosen
            ):
                chosen.append(candidate)
                if extend(i + 1):
                    chosen.pop()
                    return True
                chosen.pop()
        return False

    return extend(0)


def participating(
    windows: Sequence[Sequence[SimpleEvent]], delta_l: float
) -> list[list[SimpleEvent]] | None:
    """Per-slot candidates taking part in ≥1 spatially valid combination.

    Semantics identical to the reference ``_participating`` (same-order
    slot lists in, same membership out, ``None`` when no combination
    exists); the grid only accelerates the admissible-partner lookups.
    Callers guarantee every window is non-empty.
    """
    grids = [SlotGrid(delta_l, window) for window in windows]
    if not _anchored_combination_exists(grids, windows, delta_l):
        return None
    result: list[list[SimpleEvent]] = []
    for i, window in enumerate(windows):
        others = grids[:i] + grids[i + 1 :]
        kept: list[SimpleEvent] = []
        for candidate in window:
            near = [grid.near(candidate.location) for grid in others]
            if all(near) and combination_exists(near, delta_l):
                kept.append(candidate)
        result.append(kept)
    return result


def _anchored_combination_exists(
    grids: Sequence[SlotGrid],
    windows: Sequence[Sequence[SimpleEvent]],
    delta_l: float,
) -> bool:
    """Exact existence check, anchored on the sparsest slot.

    Every valid combination lies within ``delta_l`` of its member from
    the anchor slot, i.e. inside that member's 3×3 grid neighbourhood
    in every other slot — so anchoring loses no solutions.
    """
    anchor = min(range(len(windows)), key=lambda i: len(windows[i]))
    other_grids = [g for i, g in enumerate(grids) if i != anchor]
    for candidate in windows[anchor]:
        near = [grid.near(candidate.location) for grid in other_grids]
        if all(near) and combination_exists(near, delta_l):
            return True
    return False
