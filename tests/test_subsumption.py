"""Tests for pair-wise, exact and probabilistic set subsumption."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model import IdentifiedSubscription, Interval, operator_from_identified
from repro.subsumption import (
    ProbabilisticSetFilter,
    boxes_cover,
    find_cover,
    required_samples,
    uncovered_probe,
)
from repro.subsumption.exact import ExactCoverTooLarge


def op(sub_id, ranges, delta_t=5.0, subscriber="n"):
    return operator_from_identified(
        IdentifiedSubscription.from_ranges(
            sub_id, {k: ("t", lo, hi) for k, (lo, hi) in ranges.items()}, delta_t
        ),
        subscriber,
    )


WIDE = op("wide", {"a": (0, 100), "b": (0, 100)})
NARROW = op("narrow", {"a": (10, 20), "b": (10, 20)})
OTHER = op("other", {"a": (10, 20), "c": (10, 20)})


class TestPairwise:
    def test_find_cover_returns_first(self):
        twin = op("twin", {"a": (0, 100), "b": (0, 100)})
        assert find_cover(NARROW, [twin, WIDE]) is twin

    def test_no_cover(self):
        assert find_cover(WIDE, [NARROW]) is None
        assert find_cover(WIDE, [NARROW, OTHER]) is None

    def test_signature_mismatch_never_covers(self):
        assert find_cover(OTHER, [WIDE]) is None


class TestExactCover:
    def test_single_box(self):
        t = (Interval(0, 10), Interval(0, 10))
        assert boxes_cover(t, [(Interval(-1, 11), Interval(-1, 11))])

    def test_two_half_boxes(self):
        t = (Interval(0, 10),)
        assert boxes_cover(t, [(Interval(0, 5),), (Interval(5, 10),)])

    def test_gap(self):
        t = (Interval(0, 10),)
        assert not boxes_cover(t, [(Interval(0, 4),), (Interval(6, 10),)])
        witness = uncovered_probe(t, [(Interval(0, 4),), (Interval(6, 10),)])
        assert witness is not None and 4 < witness[0] < 6

    def test_cross_2d_union(self):
        # Two overlapping rectangles jointly (but not singly) covering.
        t = (Interval(0, 10), Interval(0, 10))
        cover = [
            (Interval(0, 10), Interval(0, 6)),
            (Interval(0, 10), Interval(5, 10)),
        ]
        assert boxes_cover(t, cover)

    def test_l_shape_leaves_corner(self):
        t = (Interval(0, 10), Interval(0, 10))
        cover = [
            (Interval(0, 10), Interval(0, 5)),
            (Interval(0, 5), Interval(0, 10)),
        ]
        assert not boxes_cover(t, cover)
        witness = uncovered_probe(t, cover)
        assert witness is not None
        assert witness[0] > 5 and witness[1] > 5

    def test_empty_target_covered(self):
        assert boxes_cover((Interval(1, 0),), [])

    def test_dimension_mismatch_ignored(self):
        t = (Interval(0, 1),)
        assert not boxes_cover(t, [(Interval(0, 1), Interval(0, 1))])

    def test_budget_guard(self):
        t = tuple(Interval(0, 1) for _ in range(6))
        cover = [
            tuple(Interval(i / 50, i / 50 + 0.5) for _ in range(6))
            for i in range(40)
        ]
        with pytest.raises(ExactCoverTooLarge):
            boxes_cover(t, cover, max_probes=1000)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
            max_size=6,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_agrees_with_dense_grid(self, raw):
        cover = [
            (Interval(min(a, b), max(a, b)), Interval(min(c, d), max(c, d)))
            for a, b, c, d in raw
        ]
        target = (Interval(2, 6), Interval(2, 6))
        claimed = boxes_cover(target, cover)
        xs = [2 + 4 * i / 40 for i in range(41)]
        dense = all(
            any(bx.contains(x) and by.contains(y) for bx, by in cover)
            for x in xs
            for y in xs
        )
        # The dense grid can miss thin gaps; exact coverage implies
        # dense coverage, and dense non-coverage implies non-coverage.
        if claimed:
            assert dense
        if not dense:
            assert not claimed


class TestRequiredSamples:
    def test_monotone_in_error(self):
        assert required_samples(0.01, 0.1) > required_samples(0.1, 0.1)

    def test_monotone_in_gap(self):
        assert required_samples(0.05, 0.01) > required_samples(0.05, 0.2)

    def test_bounds_validated(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError):
                required_samples(bad, 0.1)
            with pytest.raises(ValueError):
                required_samples(0.1, bad)


class TestProbabilisticSetFilter:
    def test_single_cover_certain(self):
        f = ProbabilisticSetFilter()
        d = f.decide((Interval(2, 3),), [(Interval(0, 10),)])
        assert d.covered and d.certain and d.samples_used == 0

    def test_disjoint_certain_false(self):
        f = ProbabilisticSetFilter()
        d = f.decide((Interval(2, 3),), [(Interval(10, 20),)])
        assert not d.covered and d.certain and d.witness is not None

    def test_corner_witness(self):
        f = ProbabilisticSetFilter()
        # Union clips the upper-right corner.
        target = (Interval(0, 10), Interval(0, 10))
        cover = [
            (Interval(0, 10), Interval(0, 9)),
            (Interval(0, 9), Interval(0, 10)),
        ]
        d = f.decide(target, cover)
        assert not d.covered and d.certain

    def test_true_union_coverage_detected(self):
        f = ProbabilisticSetFilter(0.01, 0.05)
        target = (Interval(0, 10), Interval(0, 10))
        cover = [
            (Interval(0, 10), Interval(0, 6)),
            (Interval(0, 10), Interval(5, 10)),
        ]
        assert f.is_subsumed(target, cover)

    def test_interior_gap_found_with_enough_samples(self):
        f = ProbabilisticSetFilter(0.001, 0.02)
        target = (Interval(0, 10), Interval(0, 10))
        # Horizontal slabs with an interior gap y in (4.0, 4.9) — corners
        # are covered, only sampling can find it.
        cover = [
            (Interval(0, 10), Interval(0, 4)),
            (Interval(0, 10), Interval(4.9, 10)),
        ]
        assert not f.is_subsumed(target, cover)

    def test_one_sided_error_no_false_negatives(self):
        """'not covered' answers must always be truthful."""
        rng = np.random.default_rng(5)
        f = ProbabilisticSetFilter(0.3, 0.3, rng=rng)
        for trial in range(100):
            lo = rng.uniform(0, 5, size=2)
            hi = lo + rng.uniform(0.5, 5, size=2)
            cover = []
            for _ in range(rng.integers(1, 5)):
                clo = rng.uniform(-1, 6, size=2)
                chi = clo + rng.uniform(0.5, 8, size=2)
                cover.append((Interval(clo[0], chi[0]), Interval(clo[1], chi[1])))
            target = (Interval(lo[0], hi[0]), Interval(lo[1], hi[1]))
            decision = f.decide(target, cover)
            if not decision.covered:
                assert not boxes_cover(target, cover)

    def test_product_mode_union_per_dimension(self):
        f = ProbabilisticSetFilter(0.01, 0.05)
        target = (Interval(0, 10), Interval(0, 10))
        # Per-dimension unions (the FSF criterion): dimension 0 covered
        # by [0,6]u[5,10], dimension 1 by [0,10].
        assert f.is_product_subsumed(
            target,
            [[Interval(0, 6), Interval(5, 10)], [Interval(-1, 11)]],
        )
        assert not f.is_product_subsumed(
            target,
            [[Interval(0, 6), Interval(7, 10)], [Interval(-1, 11)]],
        )

    def test_product_mode_validates_dimensions(self):
        f = ProbabilisticSetFilter()
        with pytest.raises(ValueError):
            f.decide_product((Interval(0, 1),), [])

    def test_product_mode_empty_dimension_certain_false(self):
        f = ProbabilisticSetFilter()
        d = f.decide_product((Interval(0, 1), Interval(0, 1)), [[Interval(0, 1)], []])
        assert not d.covered and d.certain

    def test_counters_advance(self):
        f = ProbabilisticSetFilter()
        f.is_subsumed((Interval(0, 1),), [(Interval(0, 2),)])
        assert f.checks == 1
