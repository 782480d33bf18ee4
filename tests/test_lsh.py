import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from racekde import lsh
from racekde.kernels import angular_collision, l2_collision, mc_collision
from racekde.lsh import (
    Family,
    LshConfig,
    _rehash_fold,
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
from racekde.vectors import DataVector


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


def test_rehash_uniformity():
    rng = np.random.default_rng(5)
    tuples = rng.integers(-(2**40), 2**40, size=(10**5, 2))
    tuples = np.unique(tuples, axis=0)
    n = tuples.shape[0] - 1
    slots = _rehash_fold(tuples[:, None, :], 0, 1024, 3)[:, 0]
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
            mp.setattr(lsh, "_row_block_size", lambda cfg, n_points, width: 3)
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
    step = lsh._row_block_size(cfg, n, cfg.dim)
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
        out.append(_rehash_fold(codes, r0, cfg.hash_range, cfg.seed) if fold else codes)
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
