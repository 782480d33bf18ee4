import copy
import pickle
import struct
import sys
import threading

import numpy as np
import pytest

from racekde import counters
from racekde.counters import DenseStore, SparseStore, UnmatchedDeletionError
from racekde.lsh import LshConfig
from racekde.sketch import RaceSketch
from racekde.vectors import DataVector


def test_staged_updates_match_fresh_builds(monkeypatch):
    """Single adds and removes logged, folded into the sparse delta and
    folded into the base several times read like a fresh bulk build of the
    same multiset at every step."""
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
        logged = len(s._store._log)
        fresh = RaceSketch(cfg)
        fresh.add_matrix(pool[present].reshape(-1, 5))
        assert s == fresh
        delta = s._store.dkeys.size
        staged += delta > 0
        folds += delta == 0
        if present:
            assert np.array_equal(s.raw_query_matrix(Q), fresh.raw_query_matrix(Q))
        assert s.to_bytes() == fresh.to_bytes()
        # Each update logs one write, the first read folds the log, and
        # later reads leave the delta staged.
        assert logged == 1 and not s._store._log and s._store.dkeys.size == delta
    assert staged > 20 and folds > 5


def test_summed_adds_counts_by_key():
    """Logged entries fold to their distinct keys, sorted, with the counts
    summed modulo 2**64 and sums of 0 dropped, keys of all 64 bits too."""
    rng = np.random.default_rng(8)
    keys = rng.integers(0, 40, size=500).astype(np.uint64) << np.uint64(58)
    vals = rng.choice(np.array([1, 2, 2**64 - 1, 2**64 - 2], dtype=np.uint64), size=500)
    want = {}
    for k, v in zip(keys.tolist(), vals.tolist()):
        want[k] = (want.get(k, 0) + v) % 2**64
    want = sorted((k, v) for k, v in want.items() if v)
    assert len(want) < 40  # some keys sum to 0
    got_keys, got_vals = counters._summed(keys, vals)
    assert list(zip(got_keys.tolist(), got_vals.tolist())) == want
    empty = np.zeros(0, dtype=np.uint64)
    assert [a.size for a in counters._summed(empty, empty)] == [0, 0]


def test_sparse_reads_fold_empty_and_cancelling_writes(monkeypatch):
    """Writes of no keys and writes that cancel out fold to the counters
    a read expects, at any log bound."""
    keys = np.array([3, 9], dtype=np.uint64)
    for bound in (0, 3, 2**16):
        monkeypatch.setattr(counters, "_log_limit", lambda nnz: bound)
        store = SparseStore(2, 8)
        store.add(counters._NO_ENTRIES, counters._NO_ENTRIES)
        store.add(keys, np.array([2, 5], dtype=np.uint64))
        store.add(counters._NO_ENTRIES, counters._NO_ENTRIES)
        store.subtract(keys[:1], np.array([2], dtype=np.uint64))
        store.add(keys[:1], np.array([2], dtype=np.uint64))
        store.subtract(keys, np.array([2, 5], dtype=np.uint64))
        store.add(counters._NO_ENTRIES, counters._NO_ENTRIES)
        assert [a.size for a in store.counters()] == [0, 0]
        assert not store._log and not np.count_nonzero(store.dense())


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


def test_concurrent_reads_fold_the_log_once():
    """Threads reading one sparse sketch whose log holds writes all see the
    counters of a fresh build: the first read folds the log, the others
    wait for it."""
    cfg = LshConfig("l1", 6, 1.0, 1, 64, 100_000, 9)
    X = np.random.default_rng(10).normal(size=(30, 6))
    fresh = RaceSketch(cfg)
    fresh.add_matrix(X)
    want = fresh.raw_query_matrix(X)
    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            s = RaceSketch(cfg)
            for x in X:
                s.add(DataVector.dense(x))
            barrier = threading.Barrier(4)

            def read():
                barrier.wait()
                if not np.array_equal(s.raw_query_matrix(X), want):
                    errors.append("a read saw other counters")

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert s == fresh
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_sparse_sketch_with_a_log_copies_and_pickles():
    cfg = LshConfig("l1", 6, 1.0, 1, 8, 100_000, 9)
    X = np.random.default_rng(11).normal(size=(5, 6))
    s = RaceSketch(cfg)
    for x in X[:4]:
        s.add(DataVector.dense(x))
    for other in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert other == s
        other.add(DataVector.dense(X[4]))
        assert other != s and other.to_bytes() != s.to_bytes()
