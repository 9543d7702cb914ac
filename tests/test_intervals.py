"""Unit and property tests for the closed-interval algebra."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.model.intervals import (
    EMPTY_INTERVAL,
    FULL_INTERVAL,
    Interval,
    union_covers,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def ivs(lo=-100.0, hi=100.0):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(
        lambda t: Interval(min(t), max(t))
    )


class TestBasics:
    def test_contains_endpoints(self):
        iv = Interval(1.0, 3.0)
        assert iv.contains(1.0) and iv.contains(3.0) and iv.contains(2.0)
        assert not iv.contains(0.999) and not iv.contains(3.001)

    def test_empty_interval(self):
        assert EMPTY_INTERVAL.is_empty
        assert not EMPTY_INTERVAL.contains(0.0)

    def test_full_interval_contains_everything(self):
        assert FULL_INTERVAL.contains(1e308) and FULL_INTERVAL.contains(-1e308)

    def test_contains_interval_reflexive(self):
        iv = Interval(0.0, 10.0)
        assert iv.contains_interval(iv)

    def test_empty_contained_in_everything(self):
        assert Interval(0.0, 1.0).contains_interval(EMPTY_INTERVAL)
        assert not EMPTY_INTERVAL.contains_interval(Interval(0.0, 1.0))

    def test_overlaps_touching(self):
        assert Interval(0.0, 1.0).overlaps(Interval(1.0, 2.0))
        assert not Interval(0.0, 1.0).overlaps(Interval(1.5, 2.0))

    def test_intersect(self):
        assert Interval(0, 10).intersect(Interval(5, 20)) == Interval(5, 10)
        assert Interval(0, 1).intersect(Interval(2, 3)).is_empty

    def test_widen(self):
        assert Interval(0, 1).widen(0.5) == Interval(-0.5, 1.5)
        with pytest.raises(ValueError):
            Interval(0, 1).widen(-0.1)
        assert EMPTY_INTERVAL.widen(1.0).is_empty


class TestUnionCovers:
    def test_single_cover(self):
        assert union_covers([Interval(0, 10)], Interval(2, 8))

    def test_two_piece_cover(self):
        assert union_covers([Interval(0, 5), Interval(5, 10)], Interval(0, 10))

    def test_gap_detected(self):
        assert not union_covers([Interval(0, 4), Interval(6, 10)], Interval(0, 10))

    def test_unordered_input(self):
        assert union_covers(
            [Interval(6, 10), Interval(0, 4), Interval(3, 7)], Interval(0, 10)
        )

    def test_empty_target_trivially_covered(self):
        assert union_covers([], EMPTY_INTERVAL)

    def test_empty_cover_fails(self):
        assert not union_covers([], Interval(0, 1))

    def test_one_ulp_apart_is_contiguous(self):
        """No float lies between 0 and the next one up: nothing is left."""
        tiny = math.nextafter(0.0, math.inf)
        assert union_covers([Interval(0.0, 0.0), Interval(tiny, 1.0)], Interval(0.0, 1.0))
        two_ulps = math.nextafter(tiny, math.inf)
        assert not union_covers(
            [Interval(0.0, 0.0), Interval(two_ulps, 1.0)], Interval(0.0, 1.0)
        )
        # The allowance starts after a span holds target.lo: 0.0 itself is bare.
        assert not union_covers([Interval(tiny, 1.0)], Interval(0.0, 1.0))

    @given(st.lists(ivs(), max_size=8), ivs())
    @example([Interval(0.0, 0.0), Interval(5e-324, 1.0)], Interval(0.0, 1.0))
    @example([Interval(5e-324, 1.0)], Interval(0.0, 1.0))
    def test_matches_pointwise_semantics(self, cover, target):
        """union_covers agrees with dense point probing."""
        claimed = union_covers(cover, target)
        if target.is_empty:
            assert claimed
            return
        n = 201
        probes = [
            min(target.hi, target.lo + (target.hi - target.lo) * i / (n - 1))
            for i in range(n)
        ]
        pointwise = all(any(c.contains(p) for c in cover) for p in probes)
        if claimed:
            assert pointwise
        # (pointwise probing may miss tiny gaps, so only one direction
        # is checked exactly; the reverse is checked on endpoints)
        if not claimed and pointwise:
            endpoints = sorted(
                {target.lo, target.hi}
                | {c.lo for c in cover if target.contains(c.lo)}
                | {c.hi for c in cover if target.contains(c.hi)}
            )
            mids = [
                (a + b) / 2 for a, b in zip(endpoints, endpoints[1:])
            ]
            assert not all(
                any(c.contains(p) for c in cover) for p in endpoints + mids
            )

