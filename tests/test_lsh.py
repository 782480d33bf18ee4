import sys
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from racekde import lsh
from racekde.kernels import angular_collision, l2_collision, mc_collision
from racekde.lsh import (
    Family,
    LshConfig,
    _fold,
    _fold_keys,
    derive_seed,
    hash_all,
    hash_blocks,
    hash_matrix,
    offset_block,
    offset_component,
    projection_block,
    projection_component,
    pstable_hash,
    rehash,
    srp_hash,
)
from racekde.sketch import RaceSketch
from racekde.vectors import DataVector, DimensionMismatchError

from helpers import SMALL_CHUNK_CASES, small_chunk_case


def srp_cfg(dim=8, power=2, rows=10, seed=1):
    return LshConfig("srp", dim, 0.0, power, rows, 2**power, seed)


def l2_cfg(dim=8, sigma=1.0, power=1, rows=10, hash_range=16, seed=1):
    return LshConfig("l2", dim, sigma, power, rows, hash_range, seed)


def test_config_validation():
    with pytest.raises(ValueError):
        LshConfig("srp", 4, 0.0, 2, 10, 8, 1)  # range != 2**power
    with pytest.raises(ValueError):
        LshConfig("l2", 4, 0.0, 1, 10, 16, 1)  # sigma <= 0
    with pytest.raises(ValueError):
        LshConfig("l2", 4, 1.0, 1, 10, 1, 1)  # range < 2
    with pytest.raises(ValueError):
        LshConfig("l2", 4, 1.0, 0, 10, 16, 1)  # power < 1


def test_projection_component_deterministic():
    cfg = l2_cfg()
    a = projection_component(cfg, 3, 0, 5)
    assert projection_component(cfg, 3, 0, 5) == a
    assert projection_component(cfg, 3, 0, 6) != a


def test_projection_gaussian_mean():
    cfg = LshConfig("l2", 1000, 1.0, 1, 1000, 16, 77)
    W = projection_block(cfg, 0, 1000)
    assert W.size == 10**6
    assert abs(W.mean()) < 0.005


def test_projection_cauchy_median():
    cfg = LshConfig("l1", 1000, 1.0, 1, 1000, 16, 78)
    W = projection_block(cfg, 0, 1000)
    assert abs(np.median(W)) < 0.01


def test_offset_component_contract():
    cfg = l2_cfg(sigma=2.5, rows=1000, dim=1)
    a = offset_component(cfg, 7, 0)
    assert offset_component(cfg, 7, 0) == a
    big = LshConfig("l2", 1, 2.5, 1, 10**6, 16, 5)
    b = offset_block(big, 0, 10**6)
    assert b.min() >= 0.0 and b.max() < 2.5
    assert abs(b.mean() - 1.25) < 0.005 * 2.5


def test_srp_scale_invariant():
    cfg = srp_cfg()
    rng = np.random.default_rng(3)
    x = rng.normal(size=8)
    for row in range(cfg.rows):
        assert srp_hash(cfg, DataVector.dense(x), row) == srp_hash(
            cfg, DataVector.dense(2 * x), row
        )


def test_srp_zero_vector_all_ones():
    cfg = srp_cfg(power=3)
    zero = DataVector.dense(np.zeros(8))
    assert srp_hash(cfg, zero, 0) == 0b111


def test_srp_negation_complements():
    cfg = srp_cfg(power=4)
    rng = np.random.default_rng(4)
    x = rng.normal(size=8)
    for row in range(cfg.rows):
        a = srp_hash(cfg, DataVector.dense(x), row)
        b = srp_hash(cfg, DataVector.dense(-x), row)
        assert a ^ b == 0b1111


def test_srp_orthogonal_collision_rate():
    cfg = LshConfig("srp", 4, 0.0, 1, 10**5, 2, 9)
    x = np.array([1.0, 0, 0, 0])
    y = np.array([0, 1.0, 0, 0])
    slots = hash_matrix(cfg, np.vstack([x, y]))
    rate = np.mean(slots[0] == slots[1])
    se = np.sqrt(0.25 / 10**5)
    assert abs(rate - 0.5) < 3 * se


def test_pstable_zero_vector_zero_codes():
    cfg = l2_cfg(power=3)
    zero = DataVector.dense(np.zeros(8))
    assert pstable_hash(cfg, zero, 2) == (0, 0, 0)


def test_pstable_deterministic():
    cfg = l2_cfg()
    x = DataVector.dense(np.arange(8.0))
    assert pstable_hash(cfg, x, 1) == pstable_hash(cfg, x, 1)


def test_pstable_collision_matches_kernel():
    sigma = 1.2
    cfg = LshConfig("l2", 4, sigma, 1, 10**5, 16, 21)
    x = np.zeros(4)
    y = np.array([sigma, 0, 0, 0])
    W = projection_block(cfg, 0, 10**5)
    b = offset_block(cfg, 0, 10**5)
    codes = np.floor((np.vstack([x, y]) @ W.T + b) / sigma)
    rate = np.mean(codes[0] == codes[1])
    k = l2_collision(sigma, sigma)
    se = np.sqrt(k * (1 - k) / 10**5)
    assert abs(rate - k) < 3 * se


def test_rehash_contract():
    assert rehash((3, -5), 2, 8, 1) == rehash((3, -5), 2, 8, 1)
    assert 0 <= rehash((123,), 0, 7, 9) < 7
    assert rehash(np.array([3, -5]), np.int64(2), np.uint64(8), np.int32(1)) == rehash(
        (3, -5), 2, 8, 1)
    assert 0 <= rehash((7,), 2**32 - 2, 2**32, 2**64 - 1) < 2**32


@pytest.mark.parametrize(
    "args, error, message",
    [
        (([1.7], 0, 16, 0), TypeError, "integer"),
        ((np.array([1.5]), 0, 16, 0), TypeError, "integer"),
        (([1], 1.0, 16, 0), TypeError, "integer"),
        (([1], 0, 16.0, 0), TypeError, "integer"),
        (([1], 0, 16, 0.0), TypeError, "integer"),
        (([], 0, 16, 0), ValueError, "at least one entry"),
        (([1], -1, 16, 0), ValueError, "row must lie"),
        (([1], 2**32 - 1, 16, 0), ValueError, "row must lie"),
        (([1], 0, 2**64, 0), ValueError, "hash_range must be below"),
        (([1], 2**32 - 2, 2**40, 0), ValueError, "flat-key space"),
        (([1], 0, 16, -1), ValueError, "seed must lie"),
        (([1], 0, 16, 2**64), ValueError, "seed must lie"),
    ],
)
def test_rehash_refuses_what_no_config_hashes(args, error, message):
    """rehash takes the integers LshConfig takes: a float is not truncated,
    an empty code has no slot, and a row, range or seed past a config's
    limits is refused, not masked or left to numpy's OverflowError."""
    with pytest.raises(error, match=message):
        rehash(*args)


def test_rehash_uniformity():
    rng = np.random.default_rng(5)
    tuples = rng.integers(-(2**40), 2**40, size=(10**5, 2))
    tuples = np.unique(tuples, axis=0)
    n = tuples.shape[0] - 1
    slots = _fold(tuples[:, None, :], _fold_keys(3, 0, 1), 1024)[:, 0]
    hits = np.mean(slots[1:] == slots[:-1])
    p = 1 / 1024
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hits - p) < 3 * se


def test_hash_all_contract():
    cfg = l2_cfg(rows=32)
    x = DataVector.dense(np.random.default_rng(6).normal(size=8))
    a = hash_all(cfg, x)
    assert a.shape == (32,)
    assert np.array_equal(a, hash_all(cfg, x))
    assert np.all(a < cfg.hash_range)


def test_hash_all_seed_sensitivity():
    rng = np.random.default_rng(7)
    differs = 0
    for trial in range(100):
        cfg_a = l2_cfg(rows=8, seed=trial)
        cfg_b = l2_cfg(rows=8, seed=trial + 1000)
        x = DataVector.dense(rng.normal(size=8))
        if not np.array_equal(hash_all(cfg_a, x), hash_all(cfg_b, x)):
            differs += 1
    assert differs == 100


CACHE_MODES = ("cached", "sliced", "streamed")


@contextmanager
def cache_mode(mode):
    """An empty projection cache, yielded. In mode "sliced" the configs below
    hash in 3-row slices of their cached columns; in "streamed" the component
    cap is cut so they are over it and generate every row block afresh."""
    with pytest.MonkeyPatch.context() as mp:
        if mode == "sliced":
            mp.setattr(lsh, "_row_block_size", lambda cfg, width: 3)
        elif mode == "streamed":
            mp.setattr(lsh, "_MAX_COMPONENTS", 100)
        lsh._CACHE.clear()
        try:
            yield lsh._CACHE
        finally:
            lsh._CACHE.clear()


@pytest.fixture
def cache():
    with cache_mode("cached") as entries:
        yield entries


def kind_cfg(kind, dim=16, rows=20):
    if kind == "srp":
        return LshConfig(kind, dim, 0.0, 2, rows, 4, 3)
    return LshConfig(kind, dim, 0.8, 2, rows, 32, 3)


def fresh_slots(cfg, X, fold=True):
    """Slots (or raw codes) from freshly generated projection and offset
    blocks, in the row blocks the library uses."""
    n, p = X.shape[0], cfg.power
    step = lsh._row_block_size(cfg, cfg.dim)
    out = []
    for r0 in range(0, cfg.rows, step):
        r1 = min(cfg.rows, r0 + step)
        proj = X @ projection_block(cfg, r0, r1).T
        if cfg.kind is Family.SRP:
            bits = (proj >= 0.0).reshape(n, r1 - r0, p).astype(np.uint64)
            out.append((bits << np.arange(p, dtype=np.uint64)).sum(axis=2))
            continue
        codes = np.floor((proj + offset_block(cfg, r0, r1)) / cfg.sigma).astype(np.int64)
        codes = codes.reshape(n, r1 - r0, p)
        out.append(_fold(codes, _fold_keys(cfg.seed, r0, r1), cfg.hash_range) if fold else codes)
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("kind", ["srp", "l2", "l1"])
def test_sparse_dense_hashes_agree(kind):
    cfg = kind_cfg(kind)
    for mode in CACHE_MODES:
        rng = np.random.default_rng(8)
        with cache_mode(mode) as cache:
            for _ in range(10):
                dense = rng.normal(size=16)
                dense[rng.random(16) < 0.6] = 0.0
                if not dense.any():
                    dense[3] = 1.0
                idx = np.nonzero(dense)[0]
                sp = DataVector.sparse(16, idx, dense[idx])
                want = fresh_slots(cfg, dense[None, :])[0]
                assert np.array_equal(hash_all(cfg, sp), want)
                assert np.array_equal(hash_all(cfg, DataVector.dense(dense)), want)
            assert (cfg in cache) == (mode != "streamed")


@pytest.mark.parametrize("mode", CACHE_MODES)
@pytest.mark.parametrize("kind", ["srp", "l2", "l1"])
def test_plan_hashes_match_fresh_blocks(kind, mode):
    cfg = kind_cfg(kind)
    X = np.random.default_rng(11).normal(size=(7, 16))
    with cache_mode(mode):
        assert np.array_equal(hash_matrix(cfg, X), fresh_slots(cfg, X))
        for row in (0, 9, cfg.rows - 1):
            W = projection_block(cfg, row, row + 1)
            for x in X[:3]:
                if kind == "srp":
                    bits = (W @ x >= 0.0).astype(int)
                    want = int(bits @ (1 << np.arange(2)))
                    assert srp_hash(cfg, DataVector.dense(x), row) == want
                else:
                    codes = np.floor((W @ x + offset_block(cfg, row, row + 1)) / cfg.sigma)
                    want = tuple(int(c) for c in codes)
                    assert pstable_hash(cfg, DataVector.dense(x), row) == want
        if kind != "srp":
            x, y = X[0], X[0] + 0.3 * X[1]
            trials = 300
            codes = fresh_slots(replace(cfg, rows=trials), np.vstack([x, y]), fold=False)
            want = float(np.mean(np.all(codes[0] == codes[1], axis=-1)))
            got = mc_collision(cfg, DataVector.dense(x), DataVector.dense(y), trials, rehashed=False)
            assert got == want


def test_plan_built_lazily(cache):
    cfg = kind_cfg("l1")
    s = RaceSketch(cfg)
    s.add_matrix(np.random.default_rng(13).normal(size=(5, 16)))
    blob = s.to_bytes()
    cache.clear()
    RaceSketch(cfg)
    loaded = RaceSketch.from_bytes(blob)
    loaded.merge(loaded)
    assert len(cache) == 0
    sparse = DataVector.sparse(16, [2, 5], [1.0, -0.5])
    loaded.add(sparse)
    loaded.estimate(sparse)
    assert list(cache) == [cfg]
    assert cached_components() == 2 * cfg.rows * cfg.power
    loaded.estimate(DataVector.dense(np.ones(16)))
    assert cached_components() == all_components(cfg)


def test_plan_cache_bounded_lru(cache, monkeypatch):
    monkeypatch.setattr(lsh, "_MAX_COMPONENTS", 2000)
    x = DataVector.dense(np.ones(16))
    a, b, c, d, big = (kind_cfg("l2", rows=rows) for rows in (10, 20, 30, 5, 63))
    for cfg in (a, b, c, a, d, big):  # 320, 640, 960, 160, 2016 components
        hash_all(cfg, x)
        assert cached_components() <= lsh._MAX_COMPONENTS
    # a was used again after b, so b went first; big never fit the cap
    assert list(cache) == [c, a, d]
    assert all(entry.components == all_components(cfg) for cfg, entry in cache.items())


def test_plans_and_columns_share_one_lru_budget(cache, monkeypatch):
    # Dense and sparse hashes share one LRU order and one bound.
    monkeypatch.setattr(lsh, "_MAX_COMPONENTS", 2000)
    rng = np.random.default_rng(18)
    dense = DataVector.dense(np.ones(16))
    a, b, c, d, e, big = (kind_cfg("l2", rows=rows) for rows in (10, 20, 30, 5, 40, 63))
    steps = [
        (a, dense),  # every column: 320 components
        (b, sparse_vec(rng, range(8))),  # 8 columns: 320
        (c, dense),  # 960
        (b, sparse_vec(rng, range(4, 12))),  # b grows to 12 columns: 480
        (a, dense),  # a used again
        (d, sparse_vec(rng, range(16))),  # 160, total 1920
        (e, dense),  # 1280 evicts c, then b
        (big, dense),  # 2016 never fits the cap
    ]
    for cfg, x in steps:
        hash_all(cfg, x)
        assert cached_components() <= lsh._MAX_COMPONENTS
    assert list(cache) == [a, d, e]
    # a sparse call on a config hashed dense adds nothing and marks it used
    hash_all(a, sparse_vec(rng, [3]))
    assert list(cache) == [d, e, a]
    assert cache[a].components == all_components(a)


@pytest.mark.parametrize("layout", ["dense", "sparse"])
def test_column_cache_shared_by_threads(layout, cache, monkeypatch):
    # More threads than cores hash configs whose cached columns keep
    # evicting each other.
    monkeypatch.setattr(lsh, "_MAX_COMPONENTS", 1500)
    cfgs = [kind_cfg(kind, rows=rows) for kind in ("srp", "l2", "l1") for rows in (20, 30)]
    rng = np.random.default_rng(19)
    vecs = [sparse_vec(rng, rng.choice(16, size=5, replace=False)) for _ in range(6)]
    if layout == "dense":
        vecs = [DataVector.dense(rng.normal(size=16)) for _ in vecs]
    want = [[fresh_slots(cfg, x.to_dense()[None, :])[0] for x in vecs] for cfg in cfgs]
    errors = []

    def work(k):
        try:
            for i in range(100):
                j, v = (i + k) % len(cfgs), (i * 5 + k) % len(vecs)
                if not np.array_equal(hash_all(cfgs[j], vecs[v]), want[j][v]):
                    errors.append(f"thread {k}: wrong slots for config {j}, vector {v}")
        except Exception as exc:  # reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cached_components() <= lsh._MAX_COMPONENTS
    for entry in cache.values():
        seen = np.flatnonzero(entry.where >= 0)
        assert entry.count == seen.size
        assert np.array_equal(np.sort(entry.where[seen]), np.arange(seen.size))


def test_srp_collision_tracks_angle():
    # hash_matrix agreement with the angular kernel at a sampled angle
    theta = 1.0
    cfg = LshConfig("srp", 3, 0.0, 1, 10**5, 2, 10)
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([np.cos(theta), np.sin(theta), 0.0])
    slots = hash_matrix(cfg, np.vstack([x, y]))
    rate = np.mean(slots[0] == slots[1])
    k = angular_collision(theta)
    se = np.sqrt(k * (1 - k) / 10**5)
    assert abs(rate - k) < 3 * se


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "race", 0) == derive_seed(1, "race", 0)
    assert derive_seed(1, "race", 0) != derive_seed(1, "rs", 0)
    assert derive_seed(1, "race", 0) != derive_seed(2, "race", 0)


def sparse_vec(rng, dims, dim=16):
    dims = np.sort(np.asarray(dims))
    vals = rng.normal(size=dims.size)
    vals[vals == 0.0] = 1.0
    return DataVector.sparse(dim, dims, vals)


def cached_components():
    return sum(entry.components for entry in lsh._CACHE.values())


def all_components(cfg):
    return cfg.rows * cfg.power * cfg.dim


@pytest.mark.parametrize("mode", CACHE_MODES)
@pytest.mark.parametrize("kind", ["srp", "l2", "l1"])
def test_sparse_column_cache_matches_fresh(kind, mode):
    cfg = kind_cfg(kind)
    rng = np.random.default_rng(15)
    # cold, warm (same dims), partially warm (some dims new), all seen
    supports = [[1, 4, 9], [1, 4, 9], [0, 4, 9, 12, 15], [0, 1, 12], list(range(16))]
    with cache_mode(mode) as cache:
        seen = set()
        for i, dims in enumerate(supports):
            x = sparse_vec(rng, dims)
            want = fresh_slots(cfg, x.to_dense()[None, :])[0]
            codes = fresh_slots(cfg, x.to_dense()[None, :], fold=False)[0]
            # the first vector meets an empty cache through the one-row path
            order = ("rows", "all") if i == 0 else ("all", "rows")
            for path in order:
                if path == "all":
                    assert np.array_equal(hash_all(cfg, x), want)
                    continue
                for row in (0, 7, cfg.rows - 1):
                    if kind == "srp":
                        assert srp_hash(cfg, x, row) == int(want[row])
                    else:
                        assert pstable_hash(cfg, x, row) == tuple(int(c) for c in codes[row])
            seen.update(dims)
            if mode == "streamed":
                assert cfg not in cache
            else:
                assert cache[cfg].components == len(seen) * cfg.rows * cfg.power


@pytest.mark.parametrize("first", ["sparse", "dense"])
@pytest.mark.parametrize("kind", ["srp", "l2", "l1"])
def test_dense_and_sparse_hashes_share_one_column_set(kind, first, cache):
    cfg = kind_cfg(kind)
    rng = np.random.default_rng(20)
    X = rng.normal(size=(4, 16))
    # first seen out of dimension order
    vecs = [sparse_vec(rng, dims) for dims in ([9, 2, 14], [0, 5, 9], [15, 1])]
    want = fresh_slots(cfg, X)

    def dense():
        assert np.array_equal(hash_matrix(cfg, X), want)
        for x, w in zip(X, want):
            assert np.array_equal(hash_all(cfg, DataVector.dense(x)), w)

    def sparse():
        for x in vecs:
            assert np.array_equal(hash_all(cfg, x), fresh_slots(cfg, x.to_dense()[None, :])[0])

    steps = (sparse, dense) if first == "sparse" else (dense, sparse)
    for step in steps + steps:
        step()
    assert list(cache) == [cfg] and cached_components() == all_components(cfg)
    # the columns are in dimension order: together they are the whole W
    assert np.array_equal(cache[cfg].cols.T, projection_block(cfg, 0, cfg.rows))


def test_column_cache_memory_follows_seen_columns(cache):
    cfg = LshConfig("l1", 5000, 2.0, 2, 50, 64, 4)
    rng = np.random.default_rng(16)
    seen = set()
    for _ in range(20):
        dims = rng.choice(np.arange(0, 5000, 50), size=6, replace=False)
        hash_all(cfg, sparse_vec(rng, dims, dim=5000))
        seen.update(dims.tolist())
        entry = cache[cfg]
        assert entry.components == len(seen) * cfg.rows * cfg.power
        assert entry.count <= entry.cols.shape[0] <= 2 * entry.count
    assert cached_components() == len(seen) * cfg.rows * cfg.power


def test_plan_is_read_only_and_isolated(cache):
    # A dense hash caches every column, put in dimension order.
    cfg = kind_cfg("l2")
    X = np.random.default_rng(12).normal(size=(3, 16))
    before = hash_matrix(cfg, X)
    assert np.array_equal(before, fresh_slots(cfg, X))
    entry = cache[cfg]
    assert entry.components == all_components(cfg)
    for a in (entry.cols, entry.b, entry.keys):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    for _r0, _r1, W, b in hash_blocks(cfg):
        for a in (W, b):
            with pytest.raises(ValueError):
                a[0] = 1.0
    projection_block(cfg, 0, cfg.rows)[...] = 0.0
    offset_block(cfg, 0, cfg.rows)[...] = 0.0
    assert np.array_equal(hash_matrix(cfg, X), before)
    assert np.array_equal(hash_all(cfg, DataVector.dense(X[0])), before[0])


def test_cached_columns_are_read_only(cache):
    cfg = kind_cfg("l2")
    rng = np.random.default_rng(17)
    x = sparse_vec(rng, [2, 3, 11])
    want_x = fresh_slots(cfg, x.to_dense()[None, :])[0]
    hashes = [
        lambda: hash_all(cfg, x),
        lambda: hash_all(cfg, sparse_vec(rng, [0, 5])),  # grows the columns
    ]
    for hash_some in hashes:
        hash_some()
        entry = cache[cfg]
        for a in (entry.cols, entry.b, entry.keys):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
    projection_block(cfg, 0, cfg.rows, x.indices)[...] = 0.0
    offset_block(cfg, 0, cfg.rows)[...] = 0.0
    assert np.array_equal(hash_all(cfg, x), want_x)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["srp", "l2", "l1"])
def test_non_finite_sigma_rejected(kind, sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        LshConfig(kind, 4, sigma, 2, 10, 4 if kind == "srp" else 16, 1)


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("mode", CACHE_MODES)
@pytest.mark.parametrize("kind", ["srp", "l2", "l1"])
def test_chunked_matrix_paths_match_per_point(kind, mode, storage):
    """hash_matrix, add_matrix and raw_query_matrix over several point
    chunks (and, unless cached whole, several row blocks) equal the
    per-point hash_all, add and raw_query."""
    cfg = kind_cfg(kind)
    rng = np.random.default_rng(19)
    X, Q = rng.normal(size=(11, 16)), rng.normal(size=(7, 16))
    with cache_mode(mode), pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsh, "_CHUNK_ITEM_ROWS", 3 * lsh._row_block_size(cfg, cfg.dim))
        blocks = [(r0, n0) for r0, _r1, n0, _slots in lsh.slot_blocks(cfg, X)]
        assert {n0 for _r0, n0 in blocks} == ({0, 7} if mode == "cached" else {0, 3, 6, 9})
        assert len({r0 for r0, _n0 in blocks}) == (3 if mode == "cached" else 7)
        assert (cfg in lsh._CACHE) == (mode != "streamed")

        want = np.array([hash_all(cfg, DataVector.dense(x)) for x in X])
        assert np.array_equal(hash_matrix(cfg, X), want)
        bulk, loop = RaceSketch(cfg, storage), RaceSketch(cfg, storage)
        bulk.add_matrix(X)
        for x in X:
            loop.add(DataVector.dense(x))
        assert bulk == loop and bulk.to_bytes() == loop.to_bytes()
        want_counters = [loop.raw_query(DataVector.dense(q)) for q in Q]
        assert np.array_equal(bulk.raw_query_matrix(Q), want_counters)


@pytest.mark.parametrize("kind", ["srp", "l2", "l1"])
def test_row_chunks_cross_cap_sized_row_blocks(kind, monkeypatch):
    """With 7 rows under the projection cap and chunks of 3 points by 3
    rows, the chunk of rows 6 to 9 crosses the 7-row bound. hash_matrix,
    add_matrix and raw_query_matrix still equal the per-point hash_all, add
    and raw_query (whose one-point chunks span 7 rows), and no chunk
    generates or holds more projections than the cap."""
    cfg = kind_cfg(kind)
    rng = np.random.default_rng(47)
    X, Q = rng.normal(size=(8, 16)), rng.normal(size=(5, 16))
    cap = 7 * cfg.power * cfg.dim
    monkeypatch.setattr(lsh, "_MAX_COMPONENTS", cap)
    monkeypatch.setattr(lsh, "_CHUNK_ITEM_ROWS", 9)
    generated = []

    def spy(*args, _real=lsh.projection_block):
        generated.append(_real(*args))
        return generated[-1]

    monkeypatch.setattr(lsh, "projection_block", spy)
    chunks = list(lsh.slot_blocks(cfg, X))
    assert {(r0, r1) for r0, r1, _n0, _s in chunks} == {
        (r0, min(r0 + 3, cfg.rows)) for r0 in range(0, cfg.rows, 3)
    }
    assert {n0 for _r0, _r1, n0, _s in chunks} == {0, 3, 6}
    assert all(s.shape[1] * cfg.power * cfg.dim <= cap for *_, s in chunks)

    want = np.array([hash_all(cfg, DataVector.dense(x)) for x in X])
    assert np.array_equal(hash_matrix(cfg, X), want)
    bulk, loop = RaceSketch(cfg), RaceSketch(cfg)
    bulk.add_matrix(X)
    for x in X:
        loop.add(DataVector.dense(x))
    assert bulk.to_bytes() == loop.to_bytes()
    want_counters = [loop.raw_query(DataVector.dense(q)) for q in Q]
    assert np.array_equal(bulk.raw_query_matrix(Q), want_counters)
    assert generated and max(W.size for W in generated) <= cap
    assert cfg not in lsh._CACHE


def _fold_calls(monkeypatch):
    """The (path, rows) of every table and mixer fold from now on."""
    calls = []
    for name in ("_table_fold", "_mix_fold"):
        def spy(codes, *args, _real=getattr(lsh, name), _name=name):
            calls.append((_name, codes.shape[1]))
            return _real(codes, *args)

        monkeypatch.setattr(lsh, name, spy)
    return calls


@pytest.mark.parametrize("case", sorted(SMALL_CHUNK_CASES))
def test_small_chunks_match_per_point_hashes(case, monkeypatch):
    """hash_matrix over ragged chunks of a few points and rows, through the
    table fold, the mixer, or both in one chunk, equals hash_all of each
    point."""
    cfg, X, _Q = small_chunk_case(case, monkeypatch)
    layout = {(r0, r1) for r0, r1, _n0, _s in lsh.slot_blocks(cfg, X)}
    assert len(layout) > 3 and max(r1 - r0 for r0, r1 in layout) < 7
    calls = _fold_calls(monkeypatch)
    got = hash_matrix(cfg, X)
    bulk = list(calls)
    want = np.array([hash_all(cfg, DataVector.dense(x)) for x in X])
    assert np.array_equal(got, want)
    paths = {
        "l2-table": {"_table_fold"},
        "l1-wide": {"_mix_fold"},
        "l1-mixed": {"_table_fold", "_mix_fold"},
        "l2-power3": {"_mix_fold"},
        "srp": set(),
    }[case]
    assert {path for path, _rows in bulk} == paths
    # A mixed chunk mixes its wide rows, then tables all of its rows.
    mixed = [a[0] == "_mix_fold" and b[0] == "_table_fold" and a[1] < b[1]
             for a, b in zip(bulk, bulk[1:])]
    assert any(mixed) == (case == "l1-mixed")


def test_table_fold_matches_the_mixer_at_extreme_codes(monkeypatch):
    """Codes anywhere in int64 fold by table as by the mixer. The span is
    computed without wrapping: a row holding both ends of int64 spans
    2**64 - 1 values, not -1, and is mixed."""
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    k = np.arange(8) % 4
    codes = np.stack([top - k, bottom + k, k - 2, np.where(k % 2, top, bottom)], axis=1)
    codes = codes.astype(np.int64)[:, :, None]
    keys = _fold_keys(5, 0, 4)
    want = lsh._mix_fold(codes, keys, 1000)
    calls = _fold_calls(monkeypatch)
    for rows in ([0, 1, 2], [0, 1, 2, 3], [3]):
        assert np.array_equal(_fold(codes[:, rows].copy(), keys[rows], 1000), want[:, rows])
    assert calls == [("_table_fold", 3), ("_mix_fold", 1), ("_table_fold", 4), ("_mix_fold", 1)]


def test_point_chunks_bound_slots_and_projections():
    """A chunk holds at most _CHUNK_ITEM_ROWS slots and twice that many
    projections, so at power 4 it holds about half the slots it holds at
    power 2."""
    X = np.random.default_rng(23).normal(size=(11, 16))
    for power, layout in (
        (2, [(0, 12, 0), (0, 12, 10), (12, 20, 0), (12, 20, 10)]),
        (4, [(0, 8, 0), (0, 8, 7), (8, 16, 0), (8, 16, 7), (16, 20, 0), (16, 20, 7)]),
    ):
        cfg = LshConfig("l2", 16, 0.8, power, 20, 32, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lsh, "_CHUNK_ITEM_ROWS", 6 * cfg.rows)
            blocks = list(lsh.slot_blocks(cfg, X))
        assert [(r0, r1, n0) for r0, r1, n0, _slots in blocks] == layout
        assert all(0 < s.size <= 6 * cfg.rows and s.size * power <= 12 * cfg.rows
                   for *_, s in blocks)
        want = [hash_all(cfg, DataVector.dense(x)) for x in X]
        got = np.empty((11, cfg.rows), dtype=np.uint64)
        for r0, r1, n0, slots in blocks:
            got[n0 : n0 + slots.shape[0], r0:r1] = slots
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "kind, fields",
    [
        ("l2", dict(dim=2**32)),
        ("l2", dict(rows=2**32)),
        ("l2", dict(power=2**16)),
        ("l2", dict(hash_range=2**64)),
        ("l2", dict(rows=17, hash_range=2**60)),  # rows * range > 2**64
        ("srp", dict(power=64, hash_range=2**64)),
        ("l2", dict(seed=-1)),
        ("l2", dict(seed=2**64)),
    ],
)
def test_fields_beyond_the_file_header_rejected(kind, fields):
    base = srp_cfg() if kind == "srp" else l2_cfg()
    with pytest.raises(ValueError, match="2\\*\\*|64-bit"):
        replace(base, **fields)


def test_configs_at_the_field_limits_are_written():
    cfg = LshConfig("l2", 2**32 - 1, 1.0, 2**16 - 1, 16, 2**60, 2**64 - 1)  # rows * range = 2**64
    sketch = RaceSketch(cfg)
    assert RaceSketch.from_bytes(sketch.to_bytes()) == sketch
    wide_srp = LshConfig("srp", 4, 0.0, 63, 2, 2**63, 1)
    assert RaceSketch.from_bytes(RaceSketch(wide_srp).to_bytes()).config == wide_srp


def test_points_of_the_wrong_shape_rejected():
    cfg = l2_cfg()
    for X in (np.zeros((3, 7)), np.zeros(8), np.zeros((2, 4, 8))):
        with pytest.raises(DimensionMismatchError, match="dimension 8"):
            hash_matrix(cfg, X)
    with pytest.raises(DimensionMismatchError, match="expected dim 8, got 7"):
        hash_all(cfg, DataVector.dense(np.zeros(7)))
    with pytest.raises(DimensionMismatchError):
        hash_all(cfg, DataVector.sparse(9, [0, 8], [1.0, 2.0]))


@pytest.mark.parametrize("kind", ["l2", "l1"])
def test_hash_codes_beyond_int64_raise(kind):
    cfg = replace(kind_cfg(kind), sigma=1e-300)
    x = DataVector.dense(np.full(16, 1e-7))
    calls = (
        lambda: hash_all(cfg, x),
        lambda: hash_matrix(cfg, x.values[None, :]),
        lambda: pstable_hash(cfg, x, 3),
    )
    for call in calls:
        with pytest.raises(OverflowError, match="hash code exceeds 64 bits"):
            call()


@pytest.mark.parametrize(
    "field, value",
    [("dim", 8.0), ("rows", 10.0), ("power", 1.0), ("hash_range", 16.0), ("seed", 1.0),
     ("seed", 1.5)],
)
def test_integer_fields_refuse_floats(field, value):
    with pytest.raises(TypeError):
        replace(l2_cfg(), **{field: value})


@pytest.mark.parametrize("field", ["dim", "rows", "power", "hash_range", "seed"])
def test_numpy_integer_fields_become_ints(field):
    base = l2_cfg()
    for make in (np.int64, np.uint32):
        cfg = replace(base, **{field: make(getattr(base, field))})
        assert type(getattr(cfg, field)) is int
        assert cfg == base and RaceSketch(cfg).to_bytes() == RaceSketch(base).to_bytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda cfg: projection_component(cfg, cfg.rows, 0, 0),
        lambda cfg: projection_component(cfg, 0, cfg.power, 0),
        lambda cfg: projection_component(cfg, 0, 0, cfg.dim),
        lambda cfg: projection_component(cfg, -1, 0, 0),
        lambda cfg: offset_component(cfg, cfg.rows, 0),
        lambda cfg: offset_component(cfg, 0, cfg.power),
        lambda cfg: pstable_hash(cfg, DataVector.dense(np.ones(8)), cfg.rows),
        lambda cfg: pstable_hash(cfg, DataVector.dense(np.ones(8)), -1),
    ],
    ids=["proj-row", "proj-concat", "proj-dim", "proj-negative", "offset-row",
         "offset-concat", "pstable-row", "pstable-negative"],
)
def test_component_and_row_indices_out_of_range(call):
    with pytest.raises(IndexError, match="out of range"):
        call(l2_cfg(power=2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: rehash((1, 2), 0, 1, 3), ValueError, "hash_range must be >= 2"),
        (lambda: srp_hash(l2_cfg(), DataVector.dense(np.ones(8)), 0), ValueError, "srp config"),
        (lambda: pstable_hash(srp_cfg(), DataVector.dense(np.ones(8)), 0), ValueError,
         "l2 or l1 config"),
        (lambda: srp_hash(srp_cfg(), DataVector.dense(np.ones(7)), 0), DimensionMismatchError,
         "expected dim 8, got 7"),
        (lambda: pstable_hash(l2_cfg(), DataVector.sparse(9, [1], [1.0]), 0),
         DimensionMismatchError, "expected dim 8, got 9"),
        (lambda: srp_hash(srp_cfg(), DataVector.dense(np.ones(8)), 10), IndexError,
         "row out of range"),
    ],
    ids=["rehash-range", "srp-family", "pstable-family", "srp-dim", "pstable-dim", "srp-row"],
)
def test_single_row_hashes_refuse_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("kind", ["l1", "l2"])
def test_cold_projection_block_peaks_at_twice_its_size(kind):
    """The counters are hashed and the uniforms mapped in place, so a block
    allocates at most one more buffer of its own size while it is made."""
    cfg = LshConfig(kind, 5000, 1.0, 1, 500, 64, 3)
    projection_block(cfg, 0, 1)  # loads scipy for l2, outside the measurement
    tracemalloc.start()
    try:
        W = projection_block(cfg, 0, cfg.rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.shape == (500, 5000)
    assert peak <= 2.1 * W.nbytes


@pytest.mark.parametrize("mode", CACHE_MODES)
@pytest.mark.parametrize("kind", ["srp", "l2", "l1"])
def test_hashing_never_writes_into_caller_arrays(kind, mode):
    cfg = kind_cfg(kind)
    rng = np.random.default_rng(24)
    X = rng.normal(size=(5, 16))
    frozen = X.copy()
    frozen.flags.writeable = False
    dims = np.array([3, 0, 11], dtype=np.uint64)
    x = sparse_vec(rng, [1, 6, 9, 15])
    code = np.array([5, -3, 2**40], dtype=np.int64)
    kept = [a.copy() for a in (X, dims, x.indices, x.values, code)]
    with cache_mode(mode):
        want = hash_matrix(cfg, X)
        assert np.array_equal(hash_matrix(cfg, frozen), want)
        projection_block(cfg, 0, cfg.rows, dims)
        hash_all(cfg, x)
        RaceSketch(cfg).add(x)
        rehash(code, 2, 64, 3)
    for before, after in zip(kept, (X, dims, x.indices, x.values, code)):
        assert np.array_equal(before, after)
    assert np.array_equal(frozen, X)
