import io
import struct
import tracemalloc

import numpy as np
import pytest

from racekde import lsh
from racekde.lsh import LshConfig, hash_matrix
from racekde.sketch import (
    ConfigMismatchError,
    EmptySketchError,
    HEADER_SIZE,
    KdeEstimate,
    RaceSketch,
    SketchFormatError,
    UnmatchedDeletionError,
    ace_variance_bound,
    rehashed_variance_bound,
    relative_error_bound,
)
from racekde.vectors import DataVector, DimensionMismatchError, NonFiniteInputError

from helpers import (
    SMALL_CHUNK_CASES,
    TARGET_KINDS,
    as_target,
    crafted_file,
    small_chunk_case,
    with_field,
    with_items,
    with_sigma,
)

RNG = np.random.default_rng(42)


def l2_cfg(rows=20, hash_range=8, seed=1, dim=6, power=1, sigma=1.0):
    return LshConfig("l2", dim, sigma, power, rows, hash_range, seed)


def srp_cfg(rows=20, power=3, seed=1, dim=6):
    return LshConfig("srp", dim, 0.0, power, rows, 2**power, seed)


def rand_vec(dim=6):
    return DataVector.dense(RNG.normal(size=dim))


def test_new_sketch_is_zero():
    s = RaceSketch(l2_cfg())
    assert s.items == 0
    assert np.all(s._dense_counts() == 0)
    assert s.memory_bytes() > 0
    with pytest.raises(EmptySketchError):
        s.raw_query(rand_vec())


def test_add_remove_inverse():
    s = RaceSketch(l2_cfg())
    empty = s.to_bytes()
    x = rand_vec()
    s.add(x)
    s.remove(x)
    assert s.items == 0
    assert s.to_bytes() == empty


def test_double_add_doubles_slots():
    s = RaceSketch(l2_cfg())
    x = rand_vec()
    s.add(x)
    s.add(x)
    counters = s.raw_query(x)
    assert np.all(counters == 2)


def test_remove_on_empty_errors():
    s = RaceSketch(l2_cfg())
    with pytest.raises(UnmatchedDeletionError):
        s.remove(rand_vec())


def test_remove_absent_vector_errors():
    s = RaceSketch(l2_cfg(hash_range=1024))
    s.add(rand_vec())
    with pytest.raises(UnmatchedDeletionError):
        s.remove(rand_vec())


def test_row_sums_track_items():
    s = RaceSketch(l2_cfg())
    xs = [rand_vec() for _ in range(10)]
    for x in xs:
        s.add(x)
    s.remove(xs[3])
    other = RaceSketch(l2_cfg())
    other.add(xs[3])
    merged = s.merge(other)
    for sk in (s, merged):
        sums = sk._dense_counts().sum(axis=1)
        assert np.all(sums == sk.items)


def test_merge_identity():
    s = RaceSketch(l2_cfg())
    for _ in range(7):
        s.add(rand_vec())
    empty = RaceSketch(l2_cfg())
    assert s.merge(empty).to_bytes() == s.to_bytes()


def test_merge_equals_joint_build():
    cfg = l2_cfg(rows=16)
    d1 = [rand_vec() for _ in range(9)]
    d2 = [rand_vec() for _ in range(5)]
    a = RaceSketch(cfg)
    b = RaceSketch(cfg)
    joint = RaceSketch(cfg)
    for x in d1:
        a.add(x)
        joint.add(x)
    for x in d2:
        b.add(x)
        joint.add(x)
    assert a.merge(b).to_bytes() == joint.to_bytes()


def test_merge_mismatch_names_field():
    a = RaceSketch(l2_cfg(seed=1))
    b = RaceSketch(l2_cfg(seed=2))
    with pytest.raises(ConfigMismatchError, match="seed"):
        a.merge(b)


def test_order_invariance():
    cfg = srp_cfg()
    xs = [rand_vec() for _ in range(12)]
    a = RaceSketch(cfg)
    b = RaceSketch(cfg)
    for x in xs:
        a.add(x)
    for x in reversed(xs):
        b.add(x)
    assert a.to_bytes() == b.to_bytes()


def test_add_matrix_matches_adds():
    cfg = l2_cfg(rows=30, hash_range=64)
    X = RNG.normal(size=(25, 6))
    bulk = RaceSketch(cfg)
    bulk.add_matrix(X)
    oneby = RaceSketch(cfg)
    for row in X:
        oneby.add(DataVector.dense(row))
    assert bulk == oneby


def test_remove_matrix_restores():
    cfg = l2_cfg(rows=10)
    X = RNG.normal(size=(20, 6))
    s = RaceSketch(cfg)
    s.add_matrix(X)
    before = s.to_bytes()
    s.add_matrix(X[:7])
    s.remove_matrix(X[:7])
    assert s.to_bytes() == before


def test_single_point_query_is_one():
    cfg = srp_cfg()
    s = RaceSketch(cfg)
    x = rand_vec()
    s.add(x)
    assert np.all(s.raw_query(x) == 1)
    est = s.estimate_finite(x, groups=5)
    assert est.value == 1.0


def test_estimate_group_median():
    # 3 groups over 6 rows; forced counters give means {0.2, 0.4, 0.9}
    cfg = srp_cfg(rows=6, power=1)
    s = RaceSketch(cfg)
    s.items = 10
    x = rand_vec()
    from racekde.lsh import hash_all

    slots = hash_all(cfg, x).astype(np.int64)
    per_row = [2, 2, 4, 4, 9, 9]
    for l, (slot, c) in enumerate(zip(slots, per_row)):
        s._counts[l, slot] = c
    est = s.estimate_finite(x, groups=3)
    assert est.groups == 3
    assert list(est.group_means) == [0.2, 0.4, 0.9]
    assert est.value == 0.4


@pytest.mark.parametrize(
    "cfg, storage",
    [
        (srp_cfg(rows=45, power=2), "dense"),
        (l2_cfg(rows=45, hash_range=16), "dense"),
        (LshConfig("l1", 6, 0.7, 2, 45, 10_000, 3), "sparse"),
        (l2_cfg(rows=45, hash_range=16, sigma=0.3), "sparse"),
    ],
)
def test_estimate_value_is_the_median_group_mean(cfg, storage):
    """The value is the median of the group means, bit for bit, including
    debiased means below 0 and ties."""
    s = RaceSketch(cfg, storage)
    s.add_matrix(np.random.default_rng(31).normal(size=(40, 6)))
    negative = 0
    for q in np.random.default_rng(32).normal(scale=2.0, size=(8, 6)):
        for groups in (1, 3, 5, 9, 15, 45):
            e = s.estimate(DataVector.dense(q), groups)
            median = float(np.median(e.group_means))
            assert e.value == median and struct.pack("<d", e.value) == struct.pack("<d", median)
            negative += bool(np.count_nonzero(e.group_means < 0))
    assert negative or cfg.kind == "srp"


def test_estimate_group_validation():
    s = RaceSketch(srp_cfg(rows=10))
    s.add(rand_vec())
    q = rand_vec()
    with pytest.raises(ValueError):
        s.estimate_finite(q, groups=4)  # even
    with pytest.raises(ValueError):
        s.estimate_finite(q, groups=11)  # > rows
    with pytest.raises(ValueError):
        RaceSketch(l2_cfg()).estimate_finite(q)  # wrong family
    assert s.estimate(q, groups=np.int64(3)).groups == 3
    wrong_dim = DataVector.dense(np.ones(7))  # the groups are checked before q is hashed
    for groups in (1.0, "3", None):
        with pytest.raises(TypeError):
            s.estimate(wrong_dim, groups=groups)
    with pytest.raises(ValueError, match="groups must be odd"):
        s.estimate(wrong_dim, groups=2)


def test_rehashed_debias_points():
    cfg = l2_cfg(rows=3, hash_range=4)
    s = RaceSketch(cfg)
    s.items = 100
    x = rand_vec()
    from racekde.lsh import hash_all

    slots = hash_all(cfg, x).astype(np.int64)
    # raw ratio exactly 1/R in every row -> estimate 0
    for l, slot in enumerate(slots):
        s._counts[l, slot] = 25
    assert s.estimate_rehashed(x, groups=3).value == 0.0
    # every counter equals items -> estimate 1
    for l, slot in enumerate(slots):
        s._counts[l, slot] = 100
    assert s.estimate_rehashed(x, groups=3).value == 1.0
    # substitution: ratio 0.4 at R=4 -> (0.4 - 0.25) * 4/3 = 0.2
    for l, slot in enumerate(slots):
        s._counts[l, slot] = 40
    assert s.estimate_rehashed(x, groups=3).value == pytest.approx(0.2)


def test_negative_estimates_returned_and_clampable():
    cfg = l2_cfg(rows=3, hash_range=4)
    s = RaceSketch(cfg)
    s.items = 100
    x = rand_vec()
    est = s.estimate_rehashed(x, groups=3)  # all counters zero
    assert est.value < 0
    assert RaceSketch.clamped_value(est) == 0.0


def test_memory_bytes_matches_serialized_size():
    for cfg, storage in [
        (l2_cfg(rows=2, hash_range=4), "dense"),
        (l2_cfg(rows=3, hash_range=1 << 20), "sparse"),
        (srp_cfg(rows=4), "auto"),
    ]:
        s = RaceSketch(cfg, storage)
        assert s.memory_bytes() == len(s.to_bytes())
        before = s.memory_bytes()
        s.add(rand_vec())
        assert s.memory_bytes() == len(s.to_bytes())
        assert s.memory_bytes() >= before


def test_empty_dense_size_is_header_plus_one_byte_per_counter():
    s = RaceSketch(l2_cfg(rows=2, hash_range=4), "dense")
    assert len(s.to_bytes()) == HEADER_SIZE + 2 * 4 + 4


def test_sparse_empty_smaller_than_dense():
    cfg = l2_cfg(rows=4, hash_range=16)
    assert (
        RaceSketch(cfg, "sparse").memory_bytes()
        < RaceSketch(cfg, "dense").memory_bytes()
    )


def test_roundtrip_dense_and_sparse():
    for storage, hash_range in [("dense", 8), ("sparse", 1 << 30)]:
        cfg = l2_cfg(rows=6, hash_range=hash_range)
        s = RaceSketch(cfg, storage)
        for _ in range(15):
            s.add(rand_vec())
        data = s.to_bytes()
        back = RaceSketch.from_bytes(data)
        assert back == s
        assert back.to_bytes() == data
        assert back.storage == storage


def test_roundtrip_keeps_signed_zero_sigma():
    plus, minus = RaceSketch(srp_cfg()), RaceSketch(LshConfig("srp", 6, -0.0, 3, 20, 8, 1))
    blobs = [plus.to_bytes(), minus.to_bytes()]
    assert blobs[0] != blobs[1]
    for data in blobs + blobs:
        assert RaceSketch.from_bytes(data).to_bytes() == data


def test_roundtrip_via_stream():
    s = RaceSketch(srp_cfg())
    s.add(rand_vec())
    buf = io.BytesIO()
    s.serialize(buf)
    buf.seek(0)
    assert RaceSketch.deserialize(buf) == s


def test_bad_magic_rejected():
    data = bytearray(RaceSketch(l2_cfg()).to_bytes())
    data[0] ^= 0xFF
    with pytest.raises(SketchFormatError):
        RaceSketch.from_bytes(bytes(data))


def test_truncation_rejected():
    data = RaceSketch(l2_cfg()).to_bytes()
    with pytest.raises(SketchFormatError):
        RaceSketch.from_bytes(data[: len(data) - 3])


def test_checksum_rejected():
    data = bytearray(RaceSketch(l2_cfg()).to_bytes())
    data[HEADER_SIZE + 1] ^= 0x01
    with pytest.raises(SketchFormatError):
        RaceSketch.from_bytes(bytes(data))


@pytest.mark.parametrize("storage_code", [0, 1])
def test_huge_declared_grid_rejected_before_allocation(storage_code):
    data = crafted_file(2**20, 2**30, storage_code)
    assert len(data) == 78
    with pytest.raises(SketchFormatError):
        RaceSketch.from_bytes(data)


@pytest.mark.parametrize(
    "fmt, offset, value, message",
    [
        ("<H", 8, 2, "unsupported version 2"),
        ("<B", 10, 3, "unknown family code 3"),
        ("<B", 11, 4, "bad counter width class 4"),
        ("<B", 58, 2, "bad storage code 2"),
        ("<I", 54, 0, "unknown rehash family 0"),
        ("<I", 54, 2, "unknown rehash family 2"),
        (None, None, None, "shorter than header"),
        ("<3s", 59, b"\x00\x01\x00", "reserved header bytes are not zero"),
    ],
)
def test_bad_header_field_rejected(fmt, offset, value, message):
    """Each file is CRC-valid, except the one cut short of header plus CRC."""
    data = RaceSketch(l2_cfg()).to_bytes()
    if fmt is None:
        data = data[: HEADER_SIZE + 3]
    else:
        data = with_field(data, fmt, offset, value)
    with pytest.raises(SketchFormatError, match=message):
        RaceSketch.from_bytes(data)


def test_invalid_header_config_is_format_error():
    with pytest.raises(SketchFormatError):
        RaceSketch.from_bytes(crafted_file(0, 16, 0, payload=b""))


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("items", [999, 9])
def test_items_must_match_row_sums(storage, items):
    s = RaceSketch(l2_cfg(rows=5, hash_range=64), storage)
    for _ in range(10):
        s.add(rand_vec())
    data = s.to_bytes()
    assert RaceSketch.from_bytes(with_items(data, 10)) == s
    with pytest.raises(SketchFormatError, match="row sums"):
        RaceSketch.from_bytes(with_items(data, items))


@pytest.mark.parametrize("storage_code", [0, 1])
def test_row_sum_check_is_wrap_free(storage_code):
    def one_row(a, b):
        if storage_code == 0:
            return struct.pack("<2Q", a, b)
        return struct.pack("<5Q", 2, 0, a, 1, b)

    # 2**63 + (2**63 + 5) wraps a uint64 sum to exactly 5.
    wrapped = crafted_file(1, 2, storage_code, one_row(2**63, 2**63 + 5), 5, 3)
    with pytest.raises(SketchFormatError, match="row sums"):
        RaceSketch.from_bytes(wrapped)
    full = crafted_file(1, 2, storage_code, one_row(2**63, 2**63 - 1), 2**64 - 1, 3)
    assert RaceSketch.from_bytes(full).items == 2**64 - 1


def _sparse_row(*pairs):
    return struct.pack("<Q", len(pairs)) + b"".join(struct.pack("<QB", *p) for p in pairs)


@pytest.mark.parametrize(
    "rows, payload, message",
    [
        (1, _sparse_row((1, 2), (0, 1)), "not sorted"),
        (1, _sparse_row((0, 2), (0, 1)), "not sorted"),
        (1, _sparse_row((0, 2), (4, 1)), "out of range"),
        (1, _sparse_row((0, 3), (1, 0)), "zero count"),
        (1, _sparse_row((0, 3))[:-1], "truncated sparse row payload"),
        (2, _sparse_row((0, 3)) + bytes(4), "truncated sparse row header"),
        (1, _sparse_row((0, 3)) + bytes(1), "trailing bytes"),
    ],
    ids=["unsorted", "repeated", "slot-range", "zero-count", "short-row", "short-header", "trailing"],
)
def test_malformed_sparse_payload_rejected(rows, payload, message):
    with pytest.raises(SketchFormatError, match=message):
        RaceSketch.from_bytes(crafted_file(rows, 4, 1, payload, items=3))


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_merge_item_count_overflow_raises(storage):
    cfg = l2_cfg(rows=1, hash_range=4)
    full, one = RaceSketch(cfg), RaceSketch(cfg)
    full._counts[0, 1] = full.items = 2**64 - 1
    one._counts[0, 1] = one.items = 1
    full = RaceSketch(cfg, storage).merge(full)
    assert RaceSketch.from_bytes(full.to_bytes()) == full
    with pytest.raises(OverflowError, match="item count"):
        full.merge(one)


def test_counter_width_narrows_file():
    cfg = srp_cfg(rows=2, power=1)
    s = RaceSketch(cfg)
    x = rand_vec()
    for _ in range(300):  # counters reach 300 -> 2-byte width
        s.add(x)
    assert len(s.to_bytes()) == HEADER_SIZE + 2 * 2 * 2 + 4


def test_variance_bound_helpers():
    assert ace_variance_bound(3.0) == 9.0
    r = rehashed_variance_bound(0.5, 4)
    expected = (4 / 3) ** 2 * (np.sqrt(3 / 4) * 0.5 + 0.5) ** 2
    assert r == pytest.approx(expected)


def test_kde_estimate_invariant():
    est = KdeEstimate(0.4, np.array([0.2, 0.4, 0.9]), 3)
    assert est.value == np.median(est.group_means)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_non_finite_matrices_rejected_unchanged(storage, bad):
    cfg = l2_cfg(rows=10)
    s = RaceSketch(cfg, storage)
    X = RNG.normal(size=(5, 6))
    s.add_matrix(X)
    before = s.to_bytes()
    Y = X.copy()
    Y[3, 2] = bad
    for call in (s.add_matrix, s.remove_matrix, s.raw_query_matrix,
                 lambda M: hash_matrix(cfg, M)):
        with pytest.raises(NonFiniteInputError):
            call(Y)
    assert s.to_bytes() == before


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_complex_matrices_rejected_unchanged(storage):
    cfg = l2_cfg(rows=10)
    s = RaceSketch(cfg, storage)
    X = RNG.normal(size=(5, 6))
    s.add_matrix(X)
    before = s.to_bytes()
    for Y in (X.astype(complex), X + 1j * X):
        for call in (s.add_matrix, s.remove_matrix, s.raw_query_matrix,
                     lambda M: hash_matrix(cfg, M)):
            with pytest.raises(TypeError, match="complex"):
                call(Y)
    assert s.to_bytes() == before


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["srp", "l2"])
def test_non_finite_header_sigma_is_format_error(kind, sigma):
    s = RaceSketch(srp_cfg() if kind == "srp" else l2_cfg())
    s.add(rand_vec())
    with pytest.raises(SketchFormatError, match="sigma must be finite"):
        RaceSketch.from_bytes(with_sigma(s.to_bytes(), sigma))


@pytest.mark.parametrize("storage_code", [0, 1])
def test_add_past_the_item_limit_raises_unchanged(storage_code):
    """At 2**64 - 1 items, add, add_matrix and a merge with a one-item
    sketch, in either order, are refused before any counter moves: with
    each row split over two counters, and with each row holding one counter
    of 2**64 - 1, the fullest counter a valid file can hold."""
    if storage_code == 0:
        split = struct.pack("<4Q", 2**63, 2**63 - 1, 0, 0)
        full = struct.pack("<8Q", 2**64 - 1, 0, 0, 0, 0, 0, 2**64 - 1, 0)
    else:
        split = struct.pack("<5Q", 2, 0, 2**63, 1, 2**63 - 1)
        full = struct.pack("<6Q", 1, 0, 2**64 - 1, 1, 2, 2**64 - 1)
    X = RNG.normal(size=(2, 4))
    for rows, payload in ((1, split), (2, full)):
        s = RaceSketch.from_bytes(crafted_file(rows, 4, storage_code, payload, 2**64 - 1, 3))
        one = RaceSketch(s.config, s.storage)
        one.add(DataVector.dense(X[0]))
        before, one_before = s.to_bytes(), one.to_bytes()
        calls = (lambda: s.add(DataVector.dense(X[0])), lambda: s.add_matrix(X),
                 lambda: s.merge(one), lambda: one.merge(s))
        for call in calls:
            with pytest.raises(OverflowError, match="item count exceeds 64 bits"):
                call()
            assert s.items == 2**64 - 1 and s.to_bytes() == before
            assert one.items == 1 and one.to_bytes() == one_before


def test_serialize_returns_the_size_written(tmp_path):
    for storage in ("dense", "sparse"):
        s = RaceSketch(l2_cfg(), storage)
        s.add_matrix(RNG.normal(size=(7, 6)))
        buf = io.BytesIO()
        assert s.serialize(buf) == len(buf.getvalue()) == len(s.to_bytes()) == s.memory_bytes()
        path = tmp_path / f"{storage}.bin"
        assert s.serialize(str(path)) == path.stat().st_size


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize(
    "case, hash_range",
    [(case, R) for case in sorted(SMALL_CHUNK_CASES)
     for R in ((None,) if case == "srp" else (None, 4, 100_000))],  # srp's range is 2**power
)
def test_small_chunks_match_per_point_updates(case, hash_range, storage, monkeypatch):
    """add_matrix, remove_matrix and raw_query_matrix over ragged chunks of
    a few points and rows equal add, remove and raw_query point by point,
    in either store, for chunks whose points repeat many keys (range 4,
    below a chunk's points) and chunks whose keys are mostly distinct
    (every other range)."""
    cfg, X, Q = small_chunk_case(case, monkeypatch, hash_range)
    bulk, loop = RaceSketch(cfg, storage), RaceSketch(cfg, storage)
    bulk.add_matrix(X)
    for x in X:
        loop.add(DataVector.dense(x))
    assert bulk == loop and bulk.to_bytes() == loop.to_bytes()
    want = [loop.raw_query(DataVector.dense(q)) for q in Q]
    assert np.array_equal(bulk.raw_query_matrix(Q), want)
    bulk.remove_matrix(X[::2])
    for x in X[::2]:
        loop.remove(DataVector.dense(x))
    assert bulk.to_bytes() == loop.to_bytes()


def _dense_batch():
    return LshConfig("l2", 32, 2.0, 1, 2000, 64, 7), np.random.default_rng(43).normal(size=(4000, 32))


def _mostly_zero_batch():
    """A 5000-wide batch whose points hold about 20 nonzeros from one of 8
    pools of 30 columns, all in the first 512 columns: the pages np.zeros
    leaves unwritten stay unbacked, so the matrix is small in memory."""
    rng = np.random.default_rng(44)
    pools = rng.choice(512, size=(8, 30), replace=False)
    X = np.zeros((4000, 5000))
    for i in range(4000):
        idx = rng.choice(pools[rng.integers(8)], size=20, replace=False)
        X[i, idx] = rng.normal(size=20)
    return LshConfig("l1", 5000, 20.0, 1, 768, 64, 8), X


def _bulk_add_peaks(cfg, X, sizes):
    """The traced allocation peaks of warm add_matrix calls of the first n
    points of X, for each n of sizes, which use the same columns."""
    dims = lsh.check_points(cfg, X)[1]
    for n in sizes:
        assert dims is None or np.array_equal(lsh.check_points(cfg, X[:n])[1], dims)
    RaceSketch(cfg).add_matrix(X)  # fills the projection cache
    peaks = []
    for n in sizes:
        s = RaceSketch(cfg)
        tracemalloc.start()
        try:
            s.add_matrix(X[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def _check_bulk_add_peaks(cfg, X):
    """A warm add_matrix peaks at the same traced allocation for 250 and for
    4000 points: at most four chunk-sized buffers (the projections, reused
    for the codes, the table positions, the slots and their flat keys) plus
    two row chunks' worth of counters, and, for a batch with all-zero
    columns, one chunk of its used columns and their cached projections on
    a row chunk."""
    dims = lsh.check_points(cfg, X)[1]
    width = cfg.dim if dims is None else dims.size
    peaks = _bulk_add_peaks(cfg, X, (250, 4000))
    chunk = 8 * lsh._CHUNK_ITEM_ROWS
    points, rows = lsh._chunk_shape(cfg, 4000, width)
    gathers = 0 if dims is None else 8 * (points + rows * cfg.power) * width
    assert max(peaks) <= 4 * chunk + gathers + 2 * 8 * rows * cfg.hash_range
    assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]


def test_bulk_add_memory_does_not_grow_with_the_points():
    _check_bulk_add_peaks(*_dense_batch())


def test_bulk_add_memory_of_a_mostly_zero_batch_does_not_grow_with_the_points():
    _check_bulk_add_peaks(*_mostly_zero_batch())


def test_bulk_add_frees_each_chunk_before_hashing_the_next():
    """A warm add_matrix of one row chunk peaks alike over one point chunk
    and over three: a chunk's slots are dropped before the next chunk is
    hashed."""
    cfg, X = LshConfig("l2", 5000, 2.0, 1, 256, 64, 9), _mostly_zero_batch()[1]
    dims = lsh.check_points(cfg, X)[1]
    assert [n0 for _r0, _r1, n0, _ in lsh.slot_blocks(cfg, X[:600], dims)] == [0, 256, 512]
    peaks = _bulk_add_peaks(cfg, X, (250, 600))
    assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]


def _check_failed_bulk_updates(storage, zero_columns, monkeypatch):
    """add_matrix and remove_matrix that fail in a later point chunk, and a
    remove that fails in a later row chunk, undo the chunks applied before
    it; an add of a point whose codes pass int64 leaves the sketch as it
    was."""
    cfg = l2_cfg(rows=20, hash_range=64)
    s = RaceSketch(cfg, storage)
    X = np.random.default_rng(29).normal(size=(9, 6))
    X[:, zero_columns] = 0.0
    s.add_matrix(X[:8])
    before = s.to_bytes()
    monkeypatch.setattr(lsh, "_MAX_COMPONENTS", 7 * cfg.dim)  # 7-row blocks
    monkeypatch.setattr(lsh, "_CHUNK_ITEM_ROWS", 2 * 7)  # 3-point chunks
    dims = lsh.check_points(cfg, X)[1]
    assert (dims is None) == (not zero_columns)
    assert [n0 for r0, _r1, n0, _ in lsh.slot_blocks(cfg, X, dims) if r0 == 0] == [0, 3, 6]
    huge = X.copy()
    huge[7][X[7] != 0] = 1e30  # its codes pass 2**63
    with pytest.raises(OverflowError, match="hash code exceeds 64 bits"):
        s.add_matrix(huge)
    assert s.to_bytes() == before
    with pytest.raises(UnmatchedDeletionError):
        s.remove_matrix(X[[0, 1, 2, 3, 4, 5, 6, 8]])  # the last point was never added
    assert s.to_bytes() == before
    with pytest.raises(UnmatchedDeletionError, match="more items"):
        s.remove_matrix(np.vstack([X, X]))
    assert s.to_bytes() == before
    one = X[7].copy()
    one[np.flatnonzero(X[7])[0]] = 1e30
    with pytest.raises(OverflowError, match="hash code exceeds 64 bits"):
        s.add(DataVector.dense(one))
    assert s.to_bytes() == before
    # A single point spans the three row chunks; find one whose counters are
    # all held in the first chunk and not in a later one.
    assert [(r0, r1) for r0, r1, _n0, _ in lsh.slot_blocks(cfg, X[:1])] == [(0, 7), (7, 14), (14, 20)]
    rng = np.random.default_rng(30)
    nudges = (X[rng.integers(8, size=500)] + rng.normal(scale=0.3, size=(500, 6))) * (X[0] != 0)
    held = s.raw_query_matrix(nudges)
    late = nudges[held[:, :7].all(axis=1) & ~held.all(axis=1)]
    assert late.size
    with pytest.raises(UnmatchedDeletionError):
        s.remove(DataVector.dense(late[0]))
    assert s.to_bytes() == before
    s.remove_matrix(X[:8])
    assert s.items == 0 and s == RaceSketch(cfg, storage)


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_failed_bulk_updates_leave_the_sketch_unchanged(storage, monkeypatch):
    _check_failed_bulk_updates(storage, [], monkeypatch)


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_failed_bulk_updates_of_a_mostly_zero_batch_leave_the_sketch_unchanged(storage, monkeypatch):
    """As above, for points hashed against their used columns only."""
    _check_failed_bulk_updates(storage, [1, 4], monkeypatch)


@pytest.mark.parametrize("shape", [(3, 5), (6,), (2, 3, 6)])
def test_points_of_the_wrong_shape_rejected_unchanged(shape):
    cfg = l2_cfg(rows=10)
    s = RaceSketch(cfg)
    s.add_matrix(RNG.normal(size=(4, 6)))
    before = s.to_bytes()
    for call in (s.add_matrix, s.remove_matrix, s.raw_query_matrix,
                 lambda M: hash_matrix(cfg, M)):
        with pytest.raises(DimensionMismatchError):
            call(np.zeros(shape))
    assert s.items == 4 and s.to_bytes() == before


def test_empty_sketch_refuses_batch_queries():
    with pytest.raises(EmptySketchError):
        RaceSketch(l2_cfg()).raw_query_matrix(RNG.normal(size=(3, 6)))


def test_unknown_storage_mode_rejected():
    with pytest.raises(ValueError, match="unknown storage mode 'bogus'"):
        RaceSketch(l2_cfg(), "bogus")


def test_rehashed_estimate_refuses_srp():
    s = RaceSketch(srp_cfg(rows=9))
    s.add(rand_vec())
    with pytest.raises(ValueError, match="l2/l1 sketches only"):
        s.estimate_rehashed(rand_vec())


def test_relative_error_bound_srp_form():
    """Without a rehash range the per-row variance bound is the half-power
    mean squared; a rehash range only adds to it."""
    half, density, rows, delta = 0.3, 0.2, 100, 0.01
    want = np.sqrt(half**2 * 32.0 * np.log(1.0 / delta) / rows) / density
    assert relative_error_bound(half, density, None, rows, delta) == pytest.approx(want, rel=1e-15)
    assert relative_error_bound(half, density, 64, rows, delta) > want
    grid = relative_error_bound(np.array([half, 2 * half]), density, None, rows, delta)
    assert grid == pytest.approx([want, 2 * want], rel=1e-15)


def test_deserialize_reads_bytes():
    s = RaceSketch(l2_cfg())
    s.add(rand_vec())
    data = s.to_bytes()
    assert RaceSketch.deserialize(data) == s
    assert RaceSketch.deserialize(bytearray(data)) == s


@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_serialize_and_deserialize_take_a_path_or_a_file(tmp_path, kind):
    s = RaceSketch(l2_cfg())
    s.add(rand_vec())
    path = tmp_path / "s.bin"
    with as_target(path, kind, "wb") as sink:
        assert s.serialize(sink) == len(s.to_bytes())
    assert path.read_bytes() == s.to_bytes()
    with as_target(path, kind, "rb") as source:
        assert RaceSketch.deserialize(source) == s


def test_equality_needs_a_sketch_of_the_same_config():
    s = RaceSketch(l2_cfg())
    assert s.__eq__(s.to_bytes()) is NotImplemented
    assert s != "sketch"
    assert s != RaceSketch(l2_cfg(seed=2))  # both empty, other hashes
    assert s == RaceSketch(l2_cfg(), "sparse")
