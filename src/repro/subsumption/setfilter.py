"""Probabilistic set-subsumption filtering — the FSF filter phase.

Reproduces the role of the probabilistic subsumption checker of Ouksel,
Jurca, Podnar & Aberer (Middleware 2006) [15] cited in Section V-B: an
algorithm that "guarantees detection of set subsumption with a
configurable probability of error", whose false-positive decisions are
the source of the (small) recall loss measured in Fig. 12.

Implementation: Monte-Carlo point sampling.  To decide whether a new
subscription box ``s`` is covered by the union of stored boxes, draw
``n`` points uniformly from ``s`` and test membership in the union.

* Any point that falls outside the union proves *not covered* —
  "not covered" answers are always correct (no false negatives at the
  filter level).
* If all ``n`` points are covered, answer *covered*.  When the union in
  truth misses a gap of at least a fraction ``theta`` of ``s``'s volume,
  the probability of this wrong answer is ``(1 - theta)^n``; choosing
  ``n = ceil(ln(eps) / ln(1 - theta))`` bounds it by the configured
  error probability ``eps``.

As in [15], the *actual* error observed is far below the bound (gaps
are usually much larger than ``theta``, or hit quickly), and shrinks as
subscription sets grow — the recall experiment reproduces this.

Deterministic shortcuts make the common cases exact and fast: a single
covering box proves coverage; an uncovered corner of ``s`` proves
non-coverage.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..model.intervals import Interval

Box = tuple[Interval, ...]


def required_samples(error_probability: float, gap_fraction: float) -> int:
    """Samples needed so that P(miss a gap of ``gap_fraction``) <= eps."""
    if not 0 < error_probability < 1:
        raise ValueError("error_probability must be in (0, 1)")
    if not 0 < gap_fraction < 1:
        raise ValueError("gap_fraction must be in (0, 1)")
    return max(1, math.ceil(math.log(error_probability) / math.log(1.0 - gap_fraction)))


@dataclass(frozen=True, slots=True)
class SetFilterDecision:
    """Outcome of one subsumption check, with its evidence."""

    covered: bool
    certain: bool
    samples_used: int
    witness: tuple[float, ...] | None = None


class ProbabilisticSetFilter:
    """The configurable-error set-subsumption checker.

    Parameters
    ----------
    error_probability:
        Upper bound ``eps`` on the probability of declaring "covered"
        when an uncovered gap of relative volume >= ``gap_fraction``
        exists.  The paper's recall/traffic trade-off knob
        (Section VI-F): smaller values cost more samples and recover
        recall.
    gap_fraction:
        Relative gap volume ``theta`` the guarantee is stated against.
    rng:
        Optional NumPy generator for reproducible sampling.
    """

    def __init__(
        self,
        error_probability: float = 0.05,
        gap_fraction: float = 0.10,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.error_probability = error_probability
        self.gap_fraction = gap_fraction
        self.samples = required_samples(error_probability, gap_fraction)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.checks = 0
        self.sampled_points = 0

    # ------------------------------------------------------------------
    def decide(self, target: Box, cover: Sequence[Box]) -> SetFilterDecision:
        """Full decision with evidence; see :meth:`is_subsumed`."""
        self.checks += 1
        live = [
            box
            for box in cover
            if len(box) == len(target)
            and not any(iv.is_empty for iv in box)
            and all(a.overlaps(b) for a, b in zip(box, target))
        ]
        # Deterministic fast paths -------------------------------------
        for box in live:
            if all(b.contains_interval(t) for b, t in zip(box, target)):
                return SetFilterDecision(True, True, 0)
        if not live:
            corner = tuple(iv.lo for iv in target)
            return SetFilterDecision(False, True, 0, witness=corner)
        witness = self._uncovered_corner(target, live)
        if witness is not None:
            return SetFilterDecision(False, True, 0, witness=witness)
        # Monte-Carlo phase --------------------------------------------
        dims = len(target)
        lows = np.array([iv.lo for iv in target])
        spans = np.array([iv.length for iv in target])
        u = self._rng.random((self.samples, dims))
        points = lows + u * spans
        self.sampled_points += self.samples
        for row in points:
            if not self._point_covered(row, live):
                return SetFilterDecision(False, True, self.samples, tuple(row))
        return SetFilterDecision(True, False, self.samples)

    def is_subsumed(self, target: Box, cover: Sequence[Box]) -> bool:
        """Whether ``target`` is (probably) inside the union of ``cover``.

        One-sided error: ``False`` answers are always correct; ``True``
        answers are wrong with probability <= ``error_probability`` for
        gaps of relative volume >= ``gap_fraction``.
        """
        return self.decide(target, cover).covered

    # ------------------------------------------------------------------
    def decide_product(
        self,
        target: Box,
        covers_per_dim: Sequence[Sequence[Interval]],
    ) -> SetFilterDecision:
        """Subsumption against a *product of unions* (the FSF criterion).

        The Filter-Split-Forward filter asks, per stream slot, whether
        the new operator's range is covered by the union of the ranges
        already requested on that stream (Section V-B's treatment of
        each sensor — or each attribute plus the location — as one
        attribute of the set-subsumption problem).  The covered region
        is then a product of 1-D unions; a point of the target box is
        covered iff every coordinate falls into some stored interval of
        its dimension.

        The same one-sided Monte-Carlo guarantee applies: "not covered"
        answers are certain, "covered" answers err with probability at
        most ``error_probability`` for gaps of relative volume
        ``gap_fraction``.
        """
        self.checks += 1
        if len(covers_per_dim) != len(target):
            raise ValueError("one candidate list per target dimension required")
        # Bounds are compared inline: this runs once per arrival at every
        # FSF node, and the Interval predicates re-test emptiness per call.
        live: list[list[Interval]] = []
        for iv, candidates in zip(target, covers_per_dim):
            lo, hi = iv.lo, iv.hi
            relevant = [
                c for c in candidates if c.lo <= hi and lo <= c.hi and c.lo <= c.hi
            ]
            if lo > hi or not relevant:  # an empty target overlaps nothing
                corner = tuple(t.lo for t in target)
                return SetFilterDecision(False, True, 0, witness=corner)
            live.append(relevant)
        # From here every interval is non-empty.  Deterministic
        # per-dimension shortcut: one stored interval containing the
        # whole target range on every dimension.
        if all(
            any(c.lo <= iv.lo and iv.hi <= c.hi for c in cands)
            for iv, cands in zip(target, live)
        ):
            return SetFilterDecision(True, True, 0)
        # Deterministic corner witnesses (ends of each range).
        for dim, (iv, cands) in enumerate(zip(target, live)):
            for endpoint in (iv.lo, iv.hi):
                if not any(c.lo <= endpoint <= c.hi for c in cands):
                    witness = tuple(
                        endpoint if d == dim else target[d].lo
                        for d in range(len(target))
                    )
                    return SetFilterDecision(False, True, 0, witness=witness)
        # Monte-Carlo phase: independent per-dimension membership.
        dims = len(target)
        lows = np.array([iv.lo for iv in target])
        spans = np.array([iv.hi - iv.lo for iv in target])
        u = self._rng.random((self.samples, dims))
        points = lows + u * spans
        self.sampled_points += self.samples
        for row in points:
            for x, cands in zip(row, live):
                if not any(c.lo <= x <= c.hi for c in cands):
                    return SetFilterDecision(False, True, self.samples, tuple(row))
        return SetFilterDecision(True, False, self.samples)

    def is_product_subsumed(
        self,
        target: Box,
        covers_per_dim: Sequence[Sequence[Interval]],
    ) -> bool:
        """Boolean form of :meth:`decide_product`."""
        return self.decide_product(target, covers_per_dim).covered

    # ------------------------------------------------------------------
    @staticmethod
    def _point_covered(point: np.ndarray, boxes: Sequence[Box]) -> bool:
        for box in boxes:
            for iv, x in zip(box, point):
                if not (iv.lo <= x <= iv.hi):
                    break
            else:
                return True
        return False

    @staticmethod
    def _uncovered_corner(
        target: Box, boxes: Sequence[Box]
    ) -> tuple[float, ...] | None:
        """Check the 2^d corners of the target — cheap exact witnesses.

        Corners catch the frequent case of a union that clips an edge of
        the new subscription; dimension is small (<= 5 attributes in the
        experiments) so this stays cheap.
        """
        if len(target) > 10:  # 1024 corners max; beyond that skip
            return None
        for corner in itertools.product(*((iv.lo, iv.hi) for iv in target)):
            covered = False
            for box in boxes:
                if all(iv.contains(x) for iv, x in zip(box, corner)):
                    covered = True
                    break
            if not covered:
                return corner
        return None
