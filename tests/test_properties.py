"""Property tests of the sketch invariants over the three hash families and
both counter stores."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from racekde import counters, lsh
from racekde.lsh import LshConfig
from racekde.sketch import HEADER_SIZE, RaceSketch, UnmatchedDeletionError
from racekde.vectors import DataVector

DIM = 4
STORAGE_BYTE = HEADER_SIZE - 4  # the u8 before the 3 reserved bytes


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["srp", "l2", "l1"]))
    power = draw(st.integers(1, 2))
    rows = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**64 - 1))
    if kind == "srp":
        return LshConfig(kind, DIM, 0.0, power, rows, 2**power, seed)
    hash_range = draw(st.sampled_from([2, 7, 64, 5000]))
    sigma = draw(st.sampled_from([0.5, 2.0]))
    return LshConfig(kind, DIM, sigma, power, rows, hash_range, seed)


def points(max_n=12):
    return st.integers(0, max_n).flatmap(
        lambda n: arrays(np.float64, (n, DIM), elements=st.floats(-3, 3, width=32))
    )


def build(cfg, storage, X):
    s = RaceSketch(cfg, storage)
    s.add_matrix(X)
    return s


def assert_rows_sum_to_items(s):
    assert np.array_equal(s._dense_counts().sum(axis=1), np.full(s.config.rows, s.items))


@settings(max_examples=60, deadline=None)
@given(configs(), points(), points(), points(max_n=5))
def test_storages_agree(cfg, X, Y, Q):
    dense, sparse = build(cfg, "dense", X), build(cfg, "sparse", X)
    assert dense == sparse
    assert np.array_equal(dense._dense_counts(), sparse._dense_counts())
    if len(X) and len(Q):
        assert np.array_equal(dense.raw_query_matrix(Q), sparse.raw_query_matrix(Q))
        for q in Q:
            a, b = dense.estimate(DataVector.dense(q), 1), sparse.estimate(DataVector.dense(q), 1)
            assert a.value == b.value and np.array_equal(a.group_means, b.group_means)

    other_dense, other_sparse = build(cfg, "dense", Y), build(cfg, "sparse", Y)
    merged = dense.merge(other_dense)
    for m in (sparse.merge(other_sparse), dense.merge(other_sparse), sparse.merge(other_dense)):
        assert m == merged
        assert np.array_equal(m._dense_counts(), merged._dense_counts())

    dense_bytes, sparse_bytes = dense.to_bytes(), sparse.to_bytes()
    assert dense_bytes[:STORAGE_BYTE] == sparse_bytes[:STORAGE_BYTE]
    assert (dense_bytes[STORAGE_BYTE], sparse_bytes[STORAGE_BYTE]) == (0, 1)
    assert dense_bytes[STORAGE_BYTE + 1 : HEADER_SIZE] == sparse_bytes[STORAGE_BYTE + 1 : HEADER_SIZE]
    assert RaceSketch.from_bytes(dense_bytes) == RaceSketch.from_bytes(sparse_bytes) == dense
    assert len(dense_bytes) == dense.memory_bytes() and len(sparse_bytes) == sparse.memory_bytes()

    for whole in (merged, sparse.merge(other_sparse)):
        whole.remove_matrix(Y)
        assert whole == dense
        assert whole.to_bytes() == (dense_bytes if whole.storage == "dense" else sparse_bytes)


@settings(max_examples=60, deadline=None)
@given(configs(), st.sampled_from(["dense", "sparse"]), points(), points(), points(max_n=4))
def test_merge_exact_and_updates_inverse(cfg, storage, X, Y, Z):
    a, b = build(cfg, storage, X), build(cfg, storage, Y)
    joint = build(cfg, storage, np.concatenate([X, Y]))
    merged = a.merge(b)
    assert merged.to_bytes() == joint.to_bytes()
    assert merged.items == len(X) + len(Y)
    assert_rows_sum_to_items(merged)

    before = a.to_bytes()
    zs = [DataVector.dense(z) for z in Z]
    for z in zs:
        a.add(z)
        assert_rows_sum_to_items(a)
    for z in reversed(zs):
        a.remove(z)
    assert a.to_bytes() == before
    assert_rows_sum_to_items(a)

    for x in X:
        merged.remove(DataVector.dense(x))
    assert merged == b
    assert merged.to_bytes() == b.to_bytes()


POOL = 10
HUGE = np.full(DIM, 1e30)  # its l2/l1 codes pass 2**63


def _step(s, op, pool):
    """Apply one op to s: a burst of single adds (i >= 0) and removes
    (~i < 0) that stops at the first refusal, a bulk update, a merge with a
    sketch of the other store, a file round trip, or a bulk update whose
    last point overflows. Returns the sketch after it and what it raised."""
    name, idx = op
    X = pool[[i if i >= 0 else ~i for i in idx]]
    try:
        if name == "singles":
            for i, x in zip(idx, X):
                (s.add if i >= 0 else s.remove)(DataVector.dense(x))
        elif name == "add_matrix":
            s.add_matrix(X)
        elif name == "remove_matrix":
            s.remove_matrix(X)
        elif name == "merge":
            return s.merge(build(s.config, "dense" if s.storage == "sparse" else "sparse", X)), None
        elif name == "roundtrip":
            return RaceSketch.from_bytes(s.to_bytes()), None
        elif name == "overflow":
            s.add_matrix(np.vstack([X, HUGE]) if s.config.kind != "srp" else X)
    except (UnmatchedDeletionError, OverflowError) as exc:
        return s, type(exc)
    return s, None


ops = st.lists(
    st.one_of(
        st.tuples(st.just("singles"), st.lists(st.integers(-POOL, POOL - 1), min_size=1, max_size=6)),
        st.tuples(
            st.sampled_from(["add_matrix", "remove_matrix", "merge", "overflow"]),
            st.lists(st.integers(0, POOL - 1), min_size=3, max_size=8),
        ),
        st.tuples(st.sampled_from(["roundtrip", "query"]), st.just([])),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=80, deadline=None)
@given(configs(), st.integers(0, 2**32 - 1), ops, st.sampled_from([0, 5, 40]), st.sampled_from([0, 12, None]))
def test_logged_sparse_writes_match_a_dense_twin(cfg, seed, steps, log_bound, delta_bound):
    """A sparse sketch whose writes are logged, folded into the delta and
    folded into the base at small bounds reads like a dense-store twin
    after every step; a refused remove and a bulk add that overflows after
    earlier chunks were logged leave both unchanged."""
    pool = np.random.default_rng(seed).normal(size=(POOL, DIM))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counters, "_log_limit", lambda nnz: log_bound)
        if delta_bound is not None:
            mp.setattr(counters, "_delta_limit", lambda nnz, rows: delta_bound)
        # Chunks of one row by 3 points, so an overflowing last point finds
        # the chunks before it already written.
        mp.setattr(lsh, "_MAX_COMPONENTS", cfg.dim * cfg.power)
        mp.setattr(lsh, "_CHUNK_ITEM_ROWS", 3)
        assert lsh._chunk_shape(cfg, 9, DIM) == (3, 1)
        s, twin = RaceSketch(cfg, "sparse"), RaceSketch(cfg, "dense")
        for op in steps:
            if op[0] == "query":
                if s.items:
                    Q = pool[: POOL // 2]
                    assert np.array_equal(s.raw_query_matrix(Q), twin.raw_query_matrix(Q))
                continue
            before = twin.to_bytes()
            s, raised = _step(s, op, pool)
            twin, twin_raised = _step(twin, op, pool)
            assert raised == twin_raised
            if op[0] == "overflow" and cfg.kind != "srp":
                assert raised is OverflowError
            if raised and op[0] != "singles":
                assert twin.to_bytes() == before
            assert s == twin
            assert s.to_bytes() == RaceSketch(cfg, "sparse").merge(twin).to_bytes()



point_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, POOL - 1)),
        # below POOL a position among the points present, below 2 * POOL
        # one among the points removed, and 2 * POOL a point never added
        st.tuples(st.just("remove"), st.integers(0, 2 * POOL)),
        st.tuples(
            st.sampled_from(["add_matrix", "remove_matrix"]),
            st.lists(st.integers(0, POOL - 1), min_size=1, max_size=4),
        ),
        st.tuples(st.just("read"), st.just(0)),
    ),
    min_size=4,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(configs(), st.integers(0, 2**32 - 1), point_ops, st.sampled_from([None, 40, 5, 0]),
       st.sampled_from([None, 3, 1]))
def test_single_point_removes_match_a_dense_twin(cfg, seed, steps, log_bound, point_bound):
    """At the default chunking, where one add or remove writes one point
    over every row, a sparse sketch reads like a dense-store twin whatever
    its single removes hit: points still in the log, which they read in
    place, points a read or a bound folded, and points removed already or
    never added, which both refuse unchanged, a refusal read in place
    leaving the log as it was. Bulk writes in the log, and a compare bound
    patched to a few points, make a remove fold first."""
    pool = np.random.default_rng(seed).normal(size=(POOL + 1, DIM))
    assert lsh._chunk_shape(cfg, 1, DIM) == (1, cfg.rows)
    with pytest.MonkeyPatch.context() as mp:
        if log_bound is not None:
            mp.setattr(counters, "_log_limit", lambda nnz: log_bound)
        if point_bound is not None:
            mp.setattr(counters, "_point_limit", lambda: point_bound * cfg.rows)
        s, twin = RaceSketch(cfg, "sparse"), RaceSketch(cfg, "dense")
        present, gone = [], []  # pool indices of the points added and removed
        for name, arg in steps:
            if name == "read":
                assert s == twin
                continue
            if name == "remove":
                if arg < POOL and present:
                    arg = present[arg % len(present)]
                elif POOL <= arg < 2 * POOL and gone:
                    arg = gone[arg % len(gone)]
                else:
                    arg = POOL
            before, logged, in_place = twin.to_bytes(), len(s._store._log), s._store._points_only()
            raised = []
            for sketch in (s, twin):
                try:
                    if name in ("add", "remove"):
                        getattr(sketch, name)(DataVector.dense(pool[arg]))
                    else:
                        getattr(sketch, name)(pool[arg])
                except UnmatchedDeletionError:
                    raised.append(sketch.storage)
            assert raised in ([], ["sparse", "dense"])
            if raised:
                assert twin.to_bytes() == before
                if name == "remove" and in_place:
                    assert len(s._store._log) == logged
            elif name.startswith("add"):
                present += np.atleast_1d(arg).tolist()
            else:
                for i in np.atleast_1d(arg).tolist():
                    gone.append(i)
                    if i in present:
                        present.remove(i)
        assert s == twin
        assert s.to_bytes() == RaceSketch(cfg, "sparse").merge(twin).to_bytes()
