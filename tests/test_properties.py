"""Property tests of the sketch invariants over the three hash families and
both counter stores."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from racekde.lsh import LshConfig
from racekde.sketch import HEADER_SIZE, RaceSketch
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
