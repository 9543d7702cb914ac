"""The q-digest quantile summary (Shrivastava et al., *Medians and Beyond*).

A digest summarises a multiset of real values from a fixed closed
domain ``[lo, hi]``.  The domain is quantized into ``sigma = 2**levels``
equal *cells*; the digest is a sparse set of counted nodes of the
dyadic tree over those cells, kept canonical as a sorted tuple of
``(level, index, count)`` buckets (level ``levels`` = leaves, level 0 =
the root spanning the whole domain).

The structure is *functional*: :meth:`extended`, :meth:`merged` and
:meth:`compressed` return new digests, so instances are frozen,
hashable, picklable and order-independent to compare — exactly what a
frozen message needs to carry one and what the property suite needs to
state merge associativity/commutativity as plain equality.

Error contract (the deterministic q-digest guarantee, stated over the
quantized domain): range-count queries are answered over the
cell-aligned range ``[cell(vlo), cell(vhi)]``.  Buckets entirely inside
the range count for certain; buckets straddling a range boundary are
uncertain.  Straddling buckets are necessarily internal nodes, every
internal node's count is at most ``n // k`` (the compression
invariant, preserved by all three operations), and at most two
straddle per level — so the half-width of ``[lower, upper]`` is at
most ``levels * (n // k) <= eps * n`` with ``eps = levels / k =
log2(sigma) / k``, and the true quantized count always lies inside the
bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

Bucket = tuple[int, int, int]
"""One counted dyadic node: ``(level, index, count)``."""

_MAX_LEVELS = 30


@dataclass(frozen=True, slots=True)
class QDigest:
    """A q-digest over ``sigma = 2**levels`` cells of ``[lo, hi]``.

    ``k`` is the compression parameter: larger ``k`` keeps more
    buckets and tightens the rank-error bound ``eps = levels / k``.
    """

    k: int
    levels: int
    lo: float
    hi: float
    n: int = 0
    buckets: tuple[Bucket, ...] = ()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 1 <= self.levels <= _MAX_LEVELS:
            raise ValueError(
                f"levels must be in [1, {_MAX_LEVELS}], got {self.levels}"
            )
        if not self.hi > self.lo:
            raise ValueError(f"domain [{self.lo!r}, {self.hi!r}] is empty")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def sigma(self) -> int:
        """Number of leaf cells of the quantization grid."""
        return 1 << self.levels

    @property
    def eps(self) -> float:
        """The a-priori rank-error bound factor ``log2(sigma) / k``."""
        return self.levels / self.k

    @property
    def error_bound(self) -> int:
        """Deterministic absolute error certificate for any range count.

        ``levels * (n // k)`` — the exact integer form of ``eps * n``
        the compression invariant supports; never exceeded by
        :meth:`estimate_range` against the quantized truth.
        """
        return self.levels * (self.n // self.k)

    @property
    def size(self) -> int:
        """Number of stored buckets (what a push message pays for)."""
        return len(self.buckets)

    # ------------------------------------------------------------------
    # quantization grid
    # ------------------------------------------------------------------
    def cell(self, value: float) -> int:
        """The leaf cell holding ``value`` (out-of-domain values clamp)."""
        span = self.hi - self.lo
        c = int((value - self.lo) * self.sigma / span)
        if c < 0:
            return 0
        if c >= self.sigma:
            return self.sigma - 1
        return c

    def query_cells(self, vlo: float, vhi: float) -> tuple[int, int]:
        """The cell-aligned range a ``[vlo, vhi]`` query is answered over."""
        return self.cell(vlo), self.cell(vhi)

    def _span(self, level: int, index: int) -> tuple[int, int]:
        width = 1 << (self.levels - level)
        start = index * width
        return start, start + width - 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def extended(self, values: Iterable[float]) -> "QDigest":
        """This digest plus ``values`` counted at their leaf cells."""
        counts = {(level, idx): c for level, idx, c in self.buckets}
        added = 0
        for value in values:
            key = (self.levels, self.cell(value))
            counts[key] = counts.get(key, 0) + 1
            added += 1
        if not added:
            return self
        return replace(self, n=self.n + added, buckets=_canonical(counts))

    def merged(self, other: "QDigest") -> "QDigest":
        """Lossless merge: bucket-wise count sum.

        Exactly associative and commutative (it is integer vector
        addition on the dyadic tree), so summaries may combine along
        arbitrary tree paths in arbitrary order.  Both operands must
        share the grid and compression parameter.
        """
        if (self.k, self.levels, self.lo, self.hi) != (
            other.k,
            other.levels,
            other.lo,
            other.hi,
        ):
            raise ValueError(
                "cannot merge digests with different grids: "
                f"{(self.k, self.levels, self.lo, self.hi)} vs "
                f"{(other.k, other.levels, other.lo, other.hi)}"
            )
        counts = {(level, idx): c for level, idx, c in self.buckets}
        for level, idx, c in other.buckets:
            key = (level, idx)
            counts[key] = counts.get(key, 0) + c
        return replace(self, n=self.n + other.n, buckets=_canonical(counts))

    def compressed(self) -> "QDigest":
        """One bottom-up compression pass; idempotent.

        Sibling pairs whose counts plus their parent's sum to at most
        ``n // k`` fold into the parent, so the digest size stays
        ``O(k * levels)`` while every internal node's count stays at
        most ``n // k`` — the invariant the error bound rests on.
        """
        threshold = self.n // self.k
        if threshold == 0 or not self.buckets:
            return self
        counts = {(level, idx): c for level, idx, c in self.buckets}
        for level in range(self.levels, 0, -1):
            parents = sorted(
                {idx >> 1 for lvl, idx in counts if lvl == level}
            )
            for parent in parents:
                left = counts.get((level, 2 * parent), 0)
                right = counts.get((level, 2 * parent + 1), 0)
                if left == 0 and right == 0:
                    continue
                above = counts.get((level - 1, parent), 0)
                if left + right + above <= threshold:
                    counts.pop((level, 2 * parent), None)
                    counts.pop((level, 2 * parent + 1), None)
                    counts[(level - 1, parent)] = left + right + above
        return replace(self, buckets=_canonical(counts))

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def range_count_bounds(self, vlo: float, vhi: float) -> tuple[int, int]:
        """``(lower, upper)`` bracket of the quantized range count.

        The true number of summarised values whose cell lies in
        ``[cell(vlo), cell(vhi)]`` is always inside the bracket, and
        ``upper - lower <= 2 * error_bound``.
        """
        if vhi < vlo:
            return 0, 0
        c_lo, c_hi = self.query_cells(vlo, vhi)
        certain = 0
        uncertain = 0
        for level, idx, count in self.buckets:
            start, end = self._span(level, idx)
            if start >= c_lo and end <= c_hi:
                certain += count
            elif end < c_lo or start > c_hi:
                continue
            else:
                uncertain += count
        return certain, certain + uncertain

    def check_invariant(self) -> None:
        """Assert the structural invariants (property-suite helper)."""
        total = 0
        cap = self.n // self.k
        seen = set()
        for level, idx, count in self.buckets:
            assert 0 <= level <= self.levels, (level, self.levels)
            assert 0 <= idx < (1 << level), (level, idx)
            assert count > 0, (level, idx, count)
            assert (level, idx) not in seen
            seen.add((level, idx))
            if level < self.levels:
                assert count <= cap, (
                    f"internal bucket {(level, idx)} holds {count} "
                    f"> n//k = {cap}"
                )
            total += count
        assert total == self.n, (total, self.n)
        assert self.buckets == tuple(sorted(self.buckets))


def _canonical(counts: dict[tuple[int, int], int]) -> tuple[Bucket, ...]:
    return tuple(
        (level, idx, c)
        for (level, idx), c in sorted(counts.items())
        if c > 0
    )

