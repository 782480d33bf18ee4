import struct

import numpy as np
import pytest

from racekde import counters
from racekde.counters import DenseStore, SparseStore, UnmatchedDeletionError
from racekde.lsh import LshConfig
from racekde.sketch import RaceSketch
from racekde.vectors import DataVector


def test_staged_updates_match_fresh_builds(monkeypatch):
    """Single adds and removes staged in the sparse delta and folded several
    times read like a fresh bulk build of the same multiset at every step."""
    monkeypatch.setattr(counters, "_delta_limit", lambda nnz, rows: 40)
    cfg = LshConfig("l2", 5, 1.0, 1, 12, 5000, 3)
    rng = np.random.default_rng(5)
    pool = rng.normal(size=(15, 5))
    Q = np.concatenate([pool[:6], rng.normal(size=(4, 5))])
    s = RaceSketch(cfg)
    assert s.storage == "sparse"
    present, staged, folds = [], 0, 0
    for step in range(120):
        if present and (rng.random() < 0.4 or len(present) > 10):
            s.remove(DataVector.dense(pool[present.pop(rng.integers(len(present)))]))
        else:
            present.append(int(rng.integers(len(pool))))
            s.add(DataVector.dense(pool[present[-1]]))
        delta = s._store.dkeys.size
        staged += delta > 0
        folds += delta == 0
        fresh = RaceSketch(cfg)
        fresh.add_matrix(pool[present].reshape(-1, 5))
        if present:
            assert np.array_equal(s.raw_query_matrix(Q), fresh.raw_query_matrix(Q))
        assert s == fresh
        assert s.to_bytes() == fresh.to_bytes()
        assert s._store.dkeys.size == delta  # reads leave the delta staged
    assert staged > 20 and folds > 5


@pytest.mark.parametrize("store_cls", [DenseStore, SparseStore])
def test_store_rejects_underflow_unchanged(store_cls):
    store = store_cls(2, 8)
    keys = np.array([3, 9], dtype=np.uint64)
    store.add(keys, np.array([2**64 - 1, 5], dtype=np.uint64))
    with pytest.raises(UnmatchedDeletionError):
        store.subtract(keys, np.array([1, 6], dtype=np.uint64))
    assert store.gather(keys).tolist() == [2**64 - 1, 5]
    store.subtract(keys, np.array([2**64 - 1, 5], dtype=np.uint64))
    assert not np.count_nonzero(store.dense())


@pytest.mark.parametrize(
    "store_cls, payload",
    [(DenseStore, struct.pack("<2Q", 2**64 - 1, 0)), (SparseStore, struct.pack("<3Q", 1, 0, 2**64 - 1))],
)
def test_loaded_store_checks_wide_counters(store_cls, payload):
    """A loaded 8-byte counter keeps all 64 bits, and the row-sum check
    reads a row summing to 2**64 as that, not as its wrapped 0."""
    store = store_cls.load(payload, 0, len(payload), 1, 2, 8)
    assert store.gather(np.array([0], dtype=np.uint64)).tolist() == [2**64 - 1]
    assert store.rows_sum_to(2**64 - 1, 8)
    store.add(np.array([1], dtype=np.uint64), np.array([1], dtype=np.uint64))
    assert store.gather(np.array([0, 1], dtype=np.uint64)).tolist() == [2**64 - 1, 1]
    assert not store.rows_sum_to(0, 8) and not store.rows_sum_to(2**64 - 1, 8)
