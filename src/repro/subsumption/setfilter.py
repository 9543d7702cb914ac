"""Probabilistic set-subsumption filtering — the FSF filter phase.

Reproduces the role of the probabilistic subsumption checker of Ouksel,
Jurca, Podnar & Aberer (Middleware 2006) [15] cited in Section V-B: an
algorithm that "guarantees detection of set subsumption with a
configurable probability of error", whose false-positive decisions are
part of the (small) recall loss measured in Fig. 12.

The question FSF asks is a product of unions.  Section V-B treats every
stream slot of an operator as one attribute of the set-subsumption
problem, so a new operator box ``s`` is covered when, on every slot, its
range lies inside the union of the ranges already stored on that slot.
The exact answer is :func:`repro.model.intervals.union_covers` per slot
(FSF's ``exact_filtering``); this filter answers it by Monte-Carlo point
sampling: draw ``n`` points uniformly from ``s`` and test each
coordinate against its slot's stored ranges.

* Any point that falls outside the product proves *not covered* —
  "not covered" answers are always correct (no false negatives at the
  filter level).
* If all ``n`` points are covered, answer *covered*.  When the product
  in truth misses a gap of at least a fraction ``theta`` of ``s``'s
  volume, the probability of this wrong answer is ``(1 - theta)^n``;
  choosing ``n = ceil(ln(eps) / ln(1 - theta))`` bounds it by the
  configured error probability ``eps``.

As in [15], the *actual* error observed is far below the bound (gaps
are usually much larger than ``theta``, or hit quickly), and shrinks as
subscription sets grow — the recall experiment reproduces this.

Deterministic shortcuts make the common cases exact and fast: a stored
range holding the whole slot range on every slot proves coverage; an
endpoint of some slot range that no stored range holds proves
non-coverage.
"""

from __future__ import annotations

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
        # One pass per dimension, bounds compared inline (this runs once
        # per arrival at every FSF node): whether some candidate overlaps
        # the range, whether one holds all of it (the deterministic
        # shortcut, if so on every dimension; nothing more to learn
        # there) and whether some holds each end (else that end is the
        # first corner witness).
        whole_everywhere = True
        witness: tuple[float, ...] | None = None
        for dim, (iv, candidates) in enumerate(zip(target, covers_per_dim)):
            lo, hi = iv.lo, iv.hi
            overlaps = whole = lo_in = hi_in = False
            for c in candidates:
                c_lo, c_hi = c.lo, c.hi
                if c_lo <= hi and lo <= c_hi and c_lo <= c_hi:
                    overlaps = True
                    # Overlapping already gives c_lo <= hi and lo <= c_hi.
                    if c_lo <= lo:
                        if hi <= c_hi:
                            whole = True
                            break
                        lo_in = True
                    elif hi <= c_hi:
                        hi_in = True
            if lo > hi or not overlaps:  # an empty target overlaps nothing
                corner = tuple(t.lo for t in target)
                return SetFilterDecision(False, True, 0, witness=corner)
            if not whole:
                whole_everywhere = False
                if witness is None and not (lo_in and hi_in):
                    endpoint = lo if not lo_in else hi
                    witness = tuple(
                        endpoint if d == dim else target[d].lo
                        for d in range(len(target))
                    )
        # From here every interval is non-empty.
        if whole_everywhere:
            return SetFilterDecision(True, True, 0)
        if witness is not None:
            return SetFilterDecision(False, True, 0, witness=witness)
        # Monte-Carlo phase: independent per-dimension membership, all
        # samples at once; the witness is the first uncovered row.
        dims = len(target)
        lows = np.array([iv.lo for iv in target])
        spans = np.array([iv.length for iv in target])
        u = self._rng.random((self.samples, dims))
        points = lows + u * spans
        self.sampled_points += self.samples
        inside = np.ones(self.samples, dtype=bool)
        for column, iv, candidates in zip(points.T, target, covers_per_dim):
            live = [
                c
                for c in candidates
                if c.lo <= iv.hi and iv.lo <= c.hi and c.lo <= c.hi
            ]
            column = column[:, None]
            inside &= (
                (column >= np.array([c.lo for c in live]))
                & (column <= np.array([c.hi for c in live]))
            ).any(axis=1)
        if not inside.all():
            row = points[int(np.argmin(inside))]
            return SetFilterDecision(False, True, self.samples, tuple(row))
        return SetFilterDecision(True, False, self.samples)

    def is_product_subsumed(
        self,
        target: Box,
        covers_per_dim: Sequence[Sequence[Interval]],
    ) -> bool:
        """Boolean form of :meth:`decide_product`."""
        return self.decide_product(target, covers_per_dim).covered

    # Bound here only because benchmarks/e2e/trace.py, which only a
    # [benchmark] PR may edit, wraps this name (tests/test_trace_contract.py).
    decide = decide_product
