"""Tests for locations, regions and spatial span."""

import pytest
from hypothesis import given, strategies as st

from repro.model.intervals import Interval
from repro.model.locations import (
    CircleRegion,
    EVERYWHERE,
    Location,
    RectRegion,
    UnionRegion,
    bounding_rect,
    spatial_span,
)

coords = st.floats(-1e3, 1e3, allow_nan=False)
locations = st.builds(Location, coords, coords)


class TestLocation:
    def test_distance_symmetry(self):
        a, b = Location(0, 0), Location(3, 4)
        assert a.distance_to(b) == pytest.approx(5.0)
        assert b.distance_to(a) == pytest.approx(5.0)

    @given(locations)
    def test_distance_to_self_zero(self, p):
        assert p.distance_to(p) == 0.0

    @given(locations, locations, locations)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


class TestSpatialSpan:
    def test_empty_and_singleton(self):
        assert spatial_span([]) == 0.0
        assert spatial_span([Location(1, 1)]) == 0.0

    def test_pairwise_maximum(self):
        pts = [Location(0, 0), Location(1, 0), Location(10, 0)]
        assert spatial_span(pts) == pytest.approx(10.0)

    @given(st.lists(locations, min_size=2, max_size=6))
    def test_span_at_least_any_pair(self, pts):
        span = spatial_span(pts)
        assert span >= pts[0].distance_to(pts[-1]) - 1e-9


class TestRegions:
    def test_rect_contains(self):
        r = RectRegion(Interval(0, 10), Interval(0, 5))
        assert r.contains(Location(10, 5)) and r.contains(Location(0, 0))
        assert not r.contains(Location(11, 1))

    def test_rect_around(self):
        r = RectRegion.around(Location(5, 5), 2.0)
        assert r.contains(Location(3, 7)) and not r.contains(Location(2.9, 5))
        with pytest.raises(ValueError):
            RectRegion.around(Location(0, 0), -1.0)

    def test_rect_contains_region(self):
        outer = RectRegion(Interval(0, 10), Interval(0, 10))
        inner = RectRegion(Interval(2, 8), Interval(2, 8))
        assert outer.contains_region(inner)
        assert not inner.contains_region(outer)

    def test_circle(self):
        c = CircleRegion(Location(0, 0), 5.0)
        assert c.contains(Location(3, 4)) and not c.contains(Location(3.1, 4))

    def test_union(self):
        u = UnionRegion((CircleRegion(Location(0, 0), 1.0),
                         CircleRegion(Location(10, 0), 1.0)))
        assert u.contains(Location(0.5, 0)) and u.contains(Location(10.5, 0))
        assert not u.contains(Location(5, 0))

    def test_everywhere(self):
        assert EVERYWHERE.contains(Location(1e9, -1e9))

    def test_bounding_rect(self):
        rect = bounding_rect([Location(0, 0), Location(4, 2)], margin=1.0)
        assert rect.contains(Location(-1, -1)) and rect.contains(Location(5, 3))
        assert not rect.contains(Location(-1.1, 0))
        with pytest.raises(ValueError):
            bounding_rect([])
