"""Property suite for the sketch summary (q-digest).

The algebra the push trees rely on, stated as plain equality on the
frozen canonical form: merge is associative and commutative, so
summaries may combine along arbitrary tree paths in arbitrary order;
compression is idempotent and preserves the counted multiset; the
certified bracket always contains the contract truth with half-width
at most ``error_bound <= eps * n``; and serialization is canonical —
pickle round-trips to an equal object and the bytes are independent of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sketches import QDigest, SketchConfig

LO, HI = 0.0, 1024.0

values_st = st.lists(
    st.floats(LO, HI, allow_nan=False), min_size=0, max_size=80
)
small_k = st.integers(1, 64)
levels_st = st.integers(1, 10)


def digest_of(values, k=8, levels=6):
    return QDigest(k, levels, LO, HI).extended(values).compressed()


def midpoint(digest, qlo, qhi):
    """The lane's point estimate: the middle of the certified bracket."""
    lower, upper = digest.range_count_bounds(qlo, qhi)
    return lower + (upper - lower) // 2


# ---------------------------------------------------------------------------
# merge algebra
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(a=values_st, b=values_st, c=values_st, k=small_k, levels=levels_st)
def test_merge_associative_and_commutative(a, b, c, k, levels):
    da, db, dc = (digest_of(v, k, levels) for v in (a, b, c))
    assert da.merged(db) == db.merged(da)
    assert da.merged(db).merged(dc) == da.merged(db.merged(dc))
    assert da.merged(db).merged(dc).n == len(a) + len(b) + len(c)


@settings(max_examples=40, deadline=None)
@given(a=values_st, b=values_st)
def test_merge_preserves_total_count_and_invariant(a, b):
    merged = digest_of(a).merged(digest_of(b)).compressed()
    assert merged.n == len(a) + len(b)
    merged.check_invariant()


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(values=values_st, k=small_k, levels=levels_st)
def test_compression_idempotent_and_invariant(values, k, levels):
    digest = QDigest(k, levels, LO, HI).extended(values)
    once = digest.compressed()
    assert once.compressed() == once
    assert once.n == digest.n
    once.check_invariant()


def test_compression_bounds_size():
    # A long uniform stream: the digest stays O(k * levels) buckets
    # while the raw stream keeps growing.
    values = [(i * 37) % 1024 + 0.5 for i in range(4000)]
    digest = digest_of(values, k=8, levels=10)
    assert digest.n == 4000
    assert digest.size < 8 * 10 * 3
    digest.check_invariant()


# ---------------------------------------------------------------------------
# error contract
# ---------------------------------------------------------------------------
def quantized_truth(digest, values, vlo, vhi):
    c_lo, c_hi = digest.query_cells(vlo, vhi)
    return sum(1 for v in values if c_lo <= digest.cell(v) <= c_hi)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    values=values_st,
    k=small_k,
    levels=levels_st,
    qlo=st.floats(LO, HI, allow_nan=False),
    qhi=st.floats(LO, HI, allow_nan=False),
)
def test_range_bounds_contain_quantized_truth(values, k, levels, qlo, qhi):
    if qhi < qlo:
        qlo, qhi = qhi, qlo
    digest = digest_of(values, k, levels)
    lower, upper = digest.range_count_bounds(qlo, qhi)
    truth = quantized_truth(digest, values, qlo, qhi)
    assert lower <= truth <= upper
    assert upper - lower <= 2 * digest.error_bound
    assert abs(midpoint(digest, qlo, qhi) - truth) <= digest.error_bound
    assert digest.error_bound <= digest.eps * max(digest.n, 1)


@pytest.mark.parametrize(
    "stream",
    [
        [500.0] * 300,  # every value in one cell
        [float(i % 2) * 1023.0 for i in range(300)],  # two extreme cells
        sorted((i * 7.3) % 1024 for i in range(300)),  # sorted sweep
        [2.0 ** (i % 10) for i in range(300)],  # exponential clusters
    ],
    ids=["constant", "bimodal", "sorted", "exponential"],
)
def test_adversarial_streams_respect_bound(stream):
    digest = digest_of(stream, k=8, levels=10)
    digest.check_invariant()
    for qlo, qhi in [(0.0, 1024.0), (0.0, 1.0), (500.0, 500.0), (100.0, 900.0)]:
        lower, upper = digest.range_count_bounds(qlo, qhi)
        truth = quantized_truth(digest, stream, qlo, qhi)
        assert lower <= truth <= upper
        assert abs(midpoint(digest, qlo, qhi) - truth) <= digest.error_bound


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(values=values_st)
def test_pickle_round_trip_equality(values):
    digest = digest_of(values)
    assert pickle.loads(pickle.dumps(digest)) == digest


_HASH_PROBE = """
import hashlib, pickle, sys
sys.path.insert(0, {src!r})
from repro.sketches import QDigest
values = [(i * 37.0) % 1024 + (i % 7) * 0.1 for i in range(500)]
d = QDigest(8, 10, 0.0, 1024.0).extended(values).compressed()
print(hashlib.sha256(pickle.dumps(d)).hexdigest())
"""


def test_serialization_hashseed_independent(tmp_path):
    """The pickled bytes are identical across PYTHONHASHSEED values.

    Summaries travel inside messages and memo caches; a digest whose
    canonical form depended on set/dict iteration order would break
    the sharded runner's bit-identity.  Two fresh interpreters with
    different hash seeds must produce byte-identical pickles.
    """
    import repro

    src = str(next(p for p in sys.path if (repro.__file__ or "").startswith(p)))
    digests = []
    for seed in ("0", "424242"):
        out = subprocess.run(
            [sys.executable, "-c", _HASH_PROBE.format(src=src)],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            check=True,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# construction validation & config
# ---------------------------------------------------------------------------
def test_qdigest_validation():
    with pytest.raises(ValueError):
        QDigest(0, 6, LO, HI)
    with pytest.raises(ValueError):
        QDigest(8, 0, LO, HI)
    with pytest.raises(ValueError):
        QDigest(8, 40, LO, HI)
    with pytest.raises(ValueError):
        QDigest(8, 6, 5.0, 5.0)
    with pytest.raises(ValueError):
        digest_of([]).merged(QDigest(9, 6, LO, HI))


def test_sketch_config_validation():
    with pytest.raises(ValueError):
        SketchConfig(k=0)
    with pytest.raises(ValueError):
        SketchConfig(push_interval=0.0)
    with pytest.raises(ValueError):
        SketchConfig(buckets_per_unit=0)
    assert SketchConfig(k=8, levels=6).empty_summary(LO, HI) == QDigest(8, 6, LO, HI)
    # default domains: the five SensorScope attributes
    assert len(SketchConfig().domain_map()) == 5
