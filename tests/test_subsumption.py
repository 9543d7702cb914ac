"""Tests for pair-wise subsumption and the FSF set filter.

FSF asks one question per stream slot: does the union of the ranges
already stored on that slot contain the new range?  Its exact answer is
``union_covers`` on every slot (FSF's ``exact_filtering``); the
probabilistic filter's ``decide_product`` is checked against it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model import IdentifiedSubscription, Interval, operator_from_identified
from repro.model.intervals import union_covers
from repro.subsumption import (
    ProbabilisticSetFilter,
    find_cover,
    required_samples,
)


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


def exact(target, covers_per_slot):
    """FSF's exact rule: every slot's range lies in its candidates' union."""
    return all(union_covers(c, iv) for iv, c in zip(target, covers_per_slot))


def outside_product(point, covers_per_slot):
    """Whether some coordinate of ``point`` misses every candidate of its slot."""
    return any(
        not any(c.contains(x) for c in candidates)
        for x, candidates in zip(point, covers_per_slot)
    )


SLOT_RANGES = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=4)


class TestExactCover:
    """The exact per-slot rule, and the filter agreeing with it."""

    def test_single_box(self):
        t = (Interval(0, 10), Interval(0, 10))
        cover = [[Interval(-1, 11)], [Interval(-1, 11)]]
        assert exact(t, cover)
        assert ProbabilisticSetFilter().decide_product(t, cover).covered

    def test_two_half_boxes(self):
        t = (Interval(0, 10),)
        cover = [[Interval(0, 5), Interval(5, 10)]]
        assert exact(t, cover)
        assert ProbabilisticSetFilter().decide_product(t, cover).covered

    def test_gap(self):
        t = (Interval(0, 10),)
        cover = [[Interval(0, 4), Interval(6, 10)]]
        assert not exact(t, cover)
        d = ProbabilisticSetFilter(0.001, 0.05).decide_product(t, cover)
        assert not d.covered and d.witness is not None and 4 < d.witness[0] < 6

    def test_cross_2d_union(self):
        # Each slot is covered only by its two ranges together.
        t = (Interval(0, 10), Interval(0, 10))
        cover = [
            [Interval(0, 6), Interval(5, 10)],
            [Interval(4, 10), Interval(0, 4)],
        ]
        assert exact(t, cover)
        assert ProbabilisticSetFilter().decide_product(t, cover).covered

    @given(SLOT_RANGES, SLOT_RANGES)
    @settings(max_examples=80, deadline=None)
    def test_exact_agrees_with_dense_grid(self, raw_a, raw_b):
        cover = [
            [Interval(min(a, b), max(a, b)) for a, b in raw]
            for raw in (raw_a, raw_b)
        ]
        target = (Interval(2, 6), Interval(2, 6))
        xs = [2 + 4 * i / 40 for i in range(41)]
        dense = not any(outside_product((x, y), cover) for x in xs for y in xs)
        # The dense grid can miss thin gaps, so only one direction holds.
        if exact(target, cover):
            assert dense


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
        d = f.decide_product((Interval(2, 3),), [[Interval(0, 10)]])
        assert d.covered and d.certain and d.samples_used == 0

    def test_disjoint_certain_false(self):
        f = ProbabilisticSetFilter()
        d = f.decide_product((Interval(2, 3),), [[Interval(10, 20)]])
        assert not d.covered and d.certain and d.witness is not None

    def test_corner_witness(self):
        f = ProbabilisticSetFilter()
        target = (Interval(0, 10), Interval(0, 10))
        # No candidate holds the first slot's upper end: the witness is
        # that end, the other slots at their lower ends.
        d = f.decide_product(target, [[Interval(0, 9)], [Interval(0, 10)]])
        assert not d.covered and d.certain and d.samples_used == 0
        assert d.witness == (10, 0)
        # Likewise the lower end of the second slot.
        d = f.decide_product(target, [[Interval(0, 10)], [Interval(1, 10)]])
        assert not d.covered and d.certain and d.witness == (0, 0)

    def test_true_union_coverage_detected(self):
        f = ProbabilisticSetFilter(0.01, 0.05)
        target = (Interval(0, 10), Interval(0, 10))
        cover = [[Interval(0, 10)], [Interval(0, 6), Interval(5, 10)]]
        assert f.is_product_subsumed(target, cover)

    def test_interior_gap_found_with_enough_samples(self):
        f = ProbabilisticSetFilter(0.001, 0.02)
        target = (Interval(0, 10), Interval(0, 10))
        # The second slot misses (4.0, 4.9); both of its ends are held,
        # so only sampling can find the gap.
        cover = [[Interval(0, 10)], [Interval(0, 4), Interval(4.9, 10)]]
        d = f.decide_product(target, cover)
        assert not d.covered and d.samples_used == f.samples
        assert 4 < d.witness[1] < 4.9

    def test_one_sided_error_no_false_negatives(self):
        """'not covered' answers must always be truthful."""
        rng = np.random.default_rng(5)
        f = ProbabilisticSetFilter(0.3, 0.3, rng=rng)
        for trial in range(100):
            lo = rng.uniform(0, 5, size=2)
            hi = lo + rng.uniform(0.5, 5, size=2)
            target = (Interval(lo[0], hi[0]), Interval(lo[1], hi[1]))
            cover = []
            for _ in target:
                candidates = []
                for _ in range(rng.integers(1, 4)):
                    clo = rng.uniform(-1, 6)
                    candidates.append(Interval(clo, clo + rng.uniform(0.5, 8)))
                cover.append(candidates)
            decision = f.decide_product(target, cover)
            if not decision.covered:
                assert not exact(target, cover)

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 10), st.integers(0, 10)),
                st.lists(
                    st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=4
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_decision_agrees_with_per_slot_union_covers(self, slots, seed):
        """Per-slot candidate lists (empty ranges among them, as
        ``Interval(a, b)`` with ``a > b``): "not covered" is certain,
        its witness lies in the target and outside the product of the
        unions, and some slot's union misses its range; "covered" and
        certain means every slot's union holds its range."""
        target = tuple(Interval(min(lo, hi), max(lo, hi)) for (lo, hi), _ in slots)
        cover = [[Interval(a, b) for a, b in raw] for _, raw in slots]
        f = ProbabilisticSetFilter(0.2, 0.3, rng=np.random.default_rng(seed))
        d = f.decide_product(target, cover)
        per_slot = [union_covers(c, iv) for iv, c in zip(target, cover)]
        if not d.covered:
            assert d.certain
            assert not all(per_slot)
            assert all(iv.contains(x) for iv, x in zip(target, d.witness))
            assert outside_product(d.witness, cover)
        elif d.certain:
            assert all(per_slot)

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
        f.is_product_subsumed((Interval(0, 1),), [[Interval(0, 2)]])
        assert f.checks == 1 and f.sampled_points == 0
        f.decide_product((Interval(0, 2),), [[Interval(0, 1), Interval(1, 2)]])
        assert f.checks == 2 and f.sampled_points == f.samples
