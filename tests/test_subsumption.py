"""Tests for pair-wise subsumption and the FSF set filter's rule.

FSF asks one question per stream slot: does the union of the ranges
already stored on that slot contain the new range?  Its answer is
``union_covers`` on every slot.
"""

from hypothesis import given, settings, strategies as st

from repro.model import IdentifiedSubscription, Interval
from repro.model.intervals import union_covers
from repro.subsumption import find_cover

from deployments import identified_operator


def op(sub_id, ranges, delta_t=5.0, subscriber="n"):
    return identified_operator(
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
    """The exact per-slot rule."""

    def test_single_box(self):
        t = (Interval(0, 10), Interval(0, 10))
        cover = [[Interval(-1, 11)], [Interval(-1, 11)]]
        assert exact(t, cover)

    def test_two_half_boxes(self):
        t = (Interval(0, 10),)
        cover = [[Interval(0, 5), Interval(5, 10)]]
        assert exact(t, cover)

    def test_gap(self):
        t = (Interval(0, 10),)
        cover = [[Interval(0, 4), Interval(6, 10)]]
        assert not exact(t, cover)

    def test_cross_2d_union(self):
        # Each slot is covered only by its two ranges together.
        t = (Interval(0, 10), Interval(0, 10))
        cover = [
            [Interval(0, 6), Interval(5, 10)],
            [Interval(4, 10), Interval(0, 4)],
        ]
        assert exact(t, cover)

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
