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
    """A subtract that would take a counter below 0 raises and leaves the
    store unchanged, also when only a key's repeats take it there. Keys of
    any shape and order count once per occurrence, and a counter at
    2**64 - 1 can be decremented."""
    store = store_cls(2, 8)
    keys = np.array([3, 9], dtype=np.uint64)
    store.add(keys, np.array([2**64 - 1, 5], dtype=np.uint64))
    with pytest.raises(UnmatchedDeletionError):
        store.subtract(keys, np.array([1, 6], dtype=np.uint64))
    assert store.gather(keys).tolist() == [2**64 - 1, 5]
    store.subtract(keys[:1], 1)
    store.subtract(np.array([3, 3], dtype=np.uint64), 1)
    assert store.gather(keys).tolist() == [2**64 - 4, 5]
    store.subtract(keys, np.array([2**64 - 4, 5], dtype=np.uint64))
    assert not np.count_nonzero(store.dense())
    repeated = np.array([[12, 1, 12], [7, 1, 12]], dtype=np.uint64)
    store.add(repeated, 1)
    touched = np.array([1, 7, 12], dtype=np.uint64)
    assert store.gather(touched).tolist() == [2, 1, 3]
    with pytest.raises(UnmatchedDeletionError):
        store.subtract(np.array([7, 1, 12, 1, 1], dtype=np.uint64), 1)  # counter 1 holds 2
    assert store.gather(touched).tolist() == [2, 1, 3]
    store.subtract(repeated[::-1], 1)
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


def test_concurrent_point_writes_and_reads_keep_every_count():
    """Threads adding and removing single points on one sparse store, while
    another reads it and so folds the log, never see a remove refused and
    leave the counts of the points still added: the index of logged points
    is written and cleared under the store's lock."""
    rows, R = 16, 50
    store = SparseStore(rows, R)
    kept, errors = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    done = threading.Event()

    def write(seed):
        rng = np.random.default_rng(seed)
        points = [counters.flat_keys(rng.integers(0, R, size=(1, rows)).astype(np.uint64), 0, R)
                  for _ in range(150)]
        try:
            for i, keys in enumerate(points):
                store.add(keys, 1)
                if i >= 3:
                    store.subtract(points[i - 3], 1)
        except UnmatchedDeletionError:
            errors.append("a remove of a point present was refused")
        kept.extend(points[-3:])

    def read():
        while not done.is_set():
            store.gather(np.arange(rows * R, dtype=np.uint64))

    try:
        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write, args=(seed,)) for seed in range(5)]
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        done.set()
        reader.join(timeout=60)
        assert not reader.is_alive() and not any(t.is_alive() for t in writers)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert errors == []
    want = np.zeros(rows * R, dtype=np.uint64)
    np.add.at(want, np.concatenate(kept).reshape(-1).astype(np.int64), 1)
    assert np.array_equal(store.dense().reshape(-1), want)

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


@pytest.mark.parametrize("store_cls", [DenseStore, SparseStore])
def test_payload_width_is_the_narrowest_that_fits(store_cls):
    """A store's payload takes the narrowest of 1, 2, 4 or 8 bytes that
    holds its largest counter, and loads back at that width."""
    keys = np.array([3, 9], dtype=np.uint64)
    for top, width in ((0, 1), (255, 1), (256, 2), (2**16 - 1, 2), (2**16, 4),
                       (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8)):
        store = store_cls(2, 8)
        store.add(keys, np.array([min(top, 1), top], dtype=np.uint64))
        got, payload = store.payload()
        assert got == width
        loaded = store_cls.load(payload, 0, len(payload), 2, 8, width)
        assert loaded.gather(keys).tolist() == [min(top, 1), top]


def test_sparse_merge_is_one_union_of_sorted_counters():
    """Merging sparse stores that hold a log and a staged delta, or a
    sparse and a dense store, gives the summed counters at once: the result
    holds neither a log nor a delta."""
    cfg = LshConfig("l1", 6, 1.0, 1, 12, 5000, 4)
    X = np.random.default_rng(12).normal(size=(40, 6))
    parts = []
    for part in (X[:20], X[20:]):
        s = RaceSketch(cfg, "sparse")
        s.add_matrix(part[:16])
        s.raw_query_matrix(part[:1])
        s.add(DataVector.dense(part[16]))
        s.raw_query_matrix(part[:1])
        for x in part[17:]:
            s.add(DataVector.dense(x))
        assert s._store._log and s._store.dkeys.size
        parts.append(s)
    dense = RaceSketch(cfg, "dense")
    dense.add_matrix(X[20:])
    joint = RaceSketch(cfg, "sparse")
    joint.add_matrix(X)
    for merged in (parts[0].merge(parts[1]), parts[0].merge(dense)):
        assert not merged._store._log and not merged._store.dkeys.size
        assert merged == joint and merged.to_bytes() == joint.to_bytes()


def test_single_point_remove_reads_the_log_in_place(monkeypatch):
    """A single remove reads the logged single points in place and logs
    itself, refusing a point never added with the log unchanged; after a
    bulk write, or once the logged points pass the compare bound, it folds
    the log first."""
    cfg = LshConfig("l1", 6, 1.0, 1, 8, 5000, 9)
    X = np.random.default_rng(21).normal(size=(12, 6))
    s = RaceSketch(cfg, "sparse")
    for x in X[:5]:
        s.add(DataVector.dense(x))
    s.remove(DataVector.dense(X[2]))
    assert len(s._store._log) == 6 and s._store._npoints == 6
    for x in (X[2], X[11]):  # removed already, never added
        with pytest.raises(UnmatchedDeletionError):
            s.remove(DataVector.dense(x))
    assert len(s._store._log) == 6 and s.items == 4
    s.add_matrix(X[5:8])
    s.remove(DataVector.dense(X[0]))  # folds the bulk write first
    assert len(s._store._log) == 1 and s._store._npoints == 1
    monkeypatch.setattr(counters, "_point_limit", lambda: 2 * cfg.rows)
    s.raw_query_matrix(X[:1])
    for x in X[8:11]:
        s.add(DataVector.dense(x))
    assert len(s._store._log) == 3 and s._store._npoints == 2
    s.remove(DataVector.dense(X[9]))  # the third add is not indexed
    assert len(s._store._log) == 1
    fresh = RaceSketch(cfg, "sparse")
    fresh.add_matrix(X[[1, 3, 4, 5, 6, 7, 8, 10]])
    assert s == fresh and s.to_bytes() == fresh.to_bytes()
    # Keys of a point's shape that do not hold one key per row are no point.
    store = SparseStore(2, 8)
    store.add(np.array([[5, 3]], dtype=np.uint64), 1)
    store.add(np.array([[1, 11]], dtype=np.uint64), 1)
    store.subtract(np.array([[3, 11]], dtype=np.uint64), 1)
    assert store.gather(np.array([1, 3, 5, 11], dtype=np.uint64)).tolist() == [1, 0, 1, 0]
