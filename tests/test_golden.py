"""Golden digests: the sha256 of what fixed small cases produce.

Each case builds its input from a fixed seed, runs one public path of the
library and hashes the bytes it yields: ``hash_matrix`` slots, sketch file
bytes, ``raw_query_matrix`` counters, and the float bits of ``estimate``.
The table was recorded once and is never regenerated: a speed-up must keep
every digest, and a change that means to alter bits says so where it is
made. The digests pin this machine's BLAS kernels, since a projection that
rounds differently can flip a slot at a floor boundary.

The shapes are scaled-down forms of the benchmark workloads (dense l2,
srp, sparse wide l1), and the sparse store is covered through single
``add``/``remove`` streams, ``add_matrix``/``remove_matrix``, ``merge``,
``to_bytes`` and ``raw_query_matrix``. Further cases cover srp, l2 and l1
at powers 2 to 4, a power-1 chunk whose rows fold both by table and by
mixing, an over-cap config whose row chunks cross its cap-sized blocks,
single-item hashes of dense and of sparse input (with the per-row
``srp_hash``/``pstable_hash``), sparse stores that hold a staged delta and a
log of writes when they merge or serialize, the float bits of the
collision kernels, and batches of densified sparse points, most of whose
columns are all zero, under cached and over-cap configs. One case takes
every way a write reaches the counters: single adds and removes, and bulk
updates of wide, deep and one-point chunks, into dense and sparse stores.
"""

import hashlib
import struct

import numpy as np
import pytest

from racekde import DataVector, LshConfig, RaceSketch, hash_all, hash_matrix, kernels, lsh

DENSE_L2 = LshConfig("l2", 32, 2.0, 1, 256, 64, 11)
SRP = LshConfig("srp", 64, 0.0, 4, 64, 16, 12)
SPARSE_L1 = LshConfig("l1", 5000, 40.0, 1, 60, 100_000, 13)
SPARSE_L2 = LshConfig("l2", 16, 0.01, 1, 100, 100_000, 14)


def _dense_points(n, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=scale, size=(8, dim))
    return centers[rng.integers(8, size=n)] + rng.normal(scale=0.35, size=(n, dim))


def _sparse_points(n, seed):
    """n points of SPARSE_L1's dimension with 40 nonzeros drawn from one of
    8 pools of 60 dimensions: the dense matrix and the sparse vectors."""
    rng = np.random.default_rng(seed)
    dim = SPARSE_L1.dim
    pools = [np.sort(rng.choice(dim, size=60, replace=False)) for _ in range(8)]
    X = np.zeros((n, dim))
    vecs = []
    for i in range(n):
        idx = np.sort(rng.choice(pools[rng.integers(8)], size=40, replace=False))
        vals = rng.normal(size=40) + 1.0
        vals[vals == 0.0] = 0.5
        X[i, idx] = vals
        vecs.append(DataVector.sparse(dim, idx, vals))
    return X, vecs


def _estimates(sketch, Q):
    """The float bits of value and group means at several odd group counts."""
    out = []
    for q in Q:
        for groups in (1, 3, 9):
            e = sketch.estimate(DataVector.dense(q), groups)
            out += (struct.pack("<d", e.value), e.group_means.tobytes())
    return b"".join(out)


def _built(cfg, X, storage="auto"):
    s = RaceSketch(cfg, storage)
    s.add_matrix(X)
    return s


def case_dense_l2():
    X = _dense_points(400, 32, 1, scale=2.0)
    s = _built(DENSE_L2, X[:300])
    return [hash_matrix(DENSE_L2, X).tobytes(), s.to_bytes(),
            s.raw_query_matrix(X[300:]).tobytes(), _estimates(s, X[300:330])]


def case_srp():
    X = _dense_points(500, 64, 2)
    s = _built(SRP, X[:400])
    return [hash_matrix(SRP, X).tobytes(), s.to_bytes(),
            s.raw_query_matrix(X[400:]).tobytes(), _estimates(s, X[400:430])]


def case_sparse_add_stream():
    X, vecs = _sparse_points(240, 3)
    s = RaceSketch(SPARSE_L1)
    for x in vecs[:200]:
        s.add(x)
    return [hash_matrix(SPARSE_L1, X).tobytes(), s.to_bytes(),
            s.raw_query_matrix(X[200:]).tobytes(), _estimates(s, X[200:220])]


def case_sparse_window():
    """A sliding window of 50 over 200 single adds, read between updates."""
    X, vecs = _sparse_points(230, 4)
    s = RaceSketch(SPARSE_L1)
    out = []
    for t, x in enumerate(vecs[:200]):
        s.add(x)
        if t >= 50:
            s.remove(vecs[t - 50])
        if t % 37 == 0:
            out.append(s.raw_query_matrix(X[200:]).tobytes())
    return out + [s.to_bytes(), _estimates(s, X[200:215])]


def case_sparse_matrix_updates():
    X = _dense_points(3000, 16, 5)
    s = _built(SPARSE_L2, X[:2500])
    before = s.to_bytes()
    s.remove_matrix(X[:700])
    s.add_matrix(X[2500:])
    return [before, s.to_bytes(), s.raw_query_matrix(X[::50]).tobytes(), _estimates(s, X[:20])]


def case_sparse_merge():
    X, vecs = _sparse_points(300, 6)
    a = _built(SPARSE_L1, X[:150])
    b = RaceSketch(SPARSE_L1)
    for x in vecs[150:280]:
        b.add(x)
    for x in vecs[150:170]:
        b.remove(x)
    m = a.merge(b)
    back = RaceSketch.from_bytes(m.to_bytes()).merge(a)
    return [m.to_bytes(), back.to_bytes(), back.raw_query_matrix(X[280:]).tobytes()]


def case_storages_merge():
    """A sparse-stored and a dense-stored sketch of a mid-size range, merged
    both ways."""
    cfg = LshConfig("l1", 16, 1.0, 2, 40, 5000, 15)
    X = _dense_points(900, 16, 7)
    sparse, dense = _built(cfg, X[:400], "sparse"), _built(cfg, X[400:800], "dense")
    return [sparse.to_bytes(), sparse.merge(dense).to_bytes(), dense.merge(sparse).to_bytes(),
            sparse.merge(dense).raw_query_matrix(X[800:]).tobytes()]


def _powers(kind, sigma, ranges):
    """Every config of the family at powers 2 to 4 over the given ranges
    (2**power for srp): hash_matrix slots, a build's bytes and its
    counters at held-out points."""
    X = _dense_points(260, 12, 8)
    out = []
    for power in (2, 3, 4):
        for R in ranges or (2**power,):
            cfg = LshConfig(kind, 12, sigma, power, 48, R, 16 + power)
            s = _built(cfg, X[:200])
            out += (hash_matrix(cfg, X).tobytes(), s.to_bytes(),
                    s.raw_query_matrix(X[200:]).tobytes(), _estimates(s, X[200:203]))
    return out


def case_srp_powers():
    return _powers("srp", 0.0, ())


def case_l2_powers():
    return _powers("l2", 1.5, (3, 100_000))


def case_l1_powers():
    return _powers("l1", 6.0, (3, 100_000))


def case_l1_mixed_fold():
    """Heavy-tailed l1 points at power 1: in one chunk, the rows whose codes
    span fewer values than half the points fold by table and the others mix
    each code."""
    cfg = LshConfig("l1", 8, 40.0, 1, 96, 100_000, 17)
    X = np.random.default_rng(9).standard_cauchy(size=(600, 8))
    s = _built(cfg, X[:500])
    return [hash_matrix(cfg, X).tobytes(), s.to_bytes(), s.raw_query_matrix(X[500:]).tobytes()]


def case_over_cap():
    """A config over a shrunken projection cap: dense hashes generate
    50-row blocks, and sparse hashes of 8 nonzeros take 125-row chunks that
    cross those blocks' edges."""
    cfg = LshConfig("l2", 20, 2.0, 2, 130, 700, 18)
    X = _dense_points(90, 20, 10)
    rng = np.random.default_rng(11)
    sparse = [DataVector.sparse(20, np.sort(rng.choice(20, 8, replace=False)),
                                rng.normal(size=8) + 3.0) for _ in range(12)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsh, "_MAX_COMPONENTS", 2000)
        s = _built(cfg, X[:80])
        for x in sparse:
            s.add(x)
        return [hash_matrix(cfg, X).tobytes(), s.to_bytes(), s.raw_query_matrix(X[80:]).tobytes(),
                b"".join(hash_all(cfg, x).tobytes() for x in sparse)]


def case_hash_all_dense():
    """Single-item hashes of dense input under dense l2, srp and wide l1."""
    out = []
    inputs = (_dense_points(20, 32, 12, scale=2.0), _dense_points(20, 64, 13), _sparse_points(20, 14)[0])
    for cfg, X in zip((DENSE_L2, SRP, SPARSE_L1), inputs):
        out += [hash_all(cfg, DataVector.dense(x)).tobytes() for x in X]
    return out


def case_hash_all_sparse():
    """Single-item hashes of sparse input with 5 and 80 nonzeros under cached
    srp, l2 and l1 configs at powers 1 and 3, and the per-row codes of the
    same vectors at the first, a middle and the last row. The vectors hash
    again after a dense hash has put the cached columns in dimension order."""
    rng = np.random.default_rng(17)
    vecs = [DataVector.sparse(400, np.sort(rng.choice(400, nnz, replace=False)),
                              rng.normal(size=nnz) * 2.0)
            for nnz in (5, 80) for _ in range(4)]
    out = []
    for kind, sigma, seed in (("srp", 0.0, 40), ("l2", 1.5, 41), ("l1", 4.0, 42)):
        for power in (1, 3):
            R = 2**power if kind == "srp" else 100_000
            cfg = LshConfig(kind, 400, sigma, power, 48, R, seed + 10 * power)
            out += [hash_all(cfg, x).tobytes() for x in vecs]
            out.append(hash_all(cfg, DataVector.dense(vecs[-1].to_dense())).tobytes())
            out += [hash_all(cfg, x).tobytes() for x in vecs]
            for row in (0, 23, 47):
                if kind == "srp":
                    out += [struct.pack("<Q", lsh.srp_hash(cfg, x, row)) for x in vecs]
                else:
                    out += [np.array(lsh.pstable_hash(cfg, x, row)).tobytes() for x in vecs]
    return out


def _float_bits(v):
    """The type name and float64 bits of a kernel's scalar or array result."""
    return type(v).__name__.encode() + np.asarray(v, dtype=np.float64).tobytes()


def case_kernel_values():
    """The five collision functions and KernelEval.value/half_power for srp,
    l2 and l1 at powers 1 to 3, with and without rehash_range, on a fixed
    grid that includes distance 0, called on scalars and on arrays."""
    angles = np.linspace(0.0, np.pi, 13)
    dists = np.array([0.0, 1e-9, 1e-3, 0.1, 0.5, 1.0, 1.7, 3.0, 6.5, 20.0, 1e3, 1e9])
    ks = np.array([0.0, 1e-300, 1e-6, 0.25, 0.5, 1.0 / 3.0, 0.9, 1.0 - 1e-12, 1.0])
    out = [_float_bits(kernels.angular_collision(angles))]
    out += [_float_bits(kernels.angular_collision(float(t))) for t in angles]
    for fn in (kernels.l2_collision, kernels.l1_collision):
        for sigma in (0.3, 1.0, 4.0):
            out.append(_float_bits(fn(dists, sigma)))
            out += [_float_bits(fn(float(c), sigma)) for c in dists]
    for p in (1, 2, 3, 7):
        out.append(_float_bits(kernels.apply_power(ks, p)))
        out += [_float_bits(kernels.apply_power(float(k), p)) for k in ks]
    for R in (2, 3, 64, 100_000):
        out.append(_float_bits(kernels.rehash_adjust(ks, R)))
        out += [_float_bits(kernels.rehash_adjust(float(k), R)) for k in ks]
    for kind, sigma, grid in (("srp", None, angles), ("l2", 1.3, dists), ("l1", 2.5, dists)):
        for power in (1, 2, 3):
            for R in ((None,) if kind == "srp" else (None, 2, 64)):
                k = kernels.KernelEval(kind, sigma, power, R)
                out += [_float_bits(k.value(grid)), _float_bits(k.half_power(grid))]
                out += [_float_bits(k.value(float(c))) for c in grid[::3]]
                out += [_float_bits(k.half_power(float(c))) for c in grid[::3]]
    return out


def case_batch_used_columns():
    """hash_matrix, add_matrix, raw_query_matrix and remove_matrix of a batch
    of densified sparse points (about 30 nonzeros from one of 8 pools of 50
    dimensions, and one all-zero row) whose other columns are all zero, and
    hash_matrix of an all-zero batch, under srp, l2 and l1 configs both
    cached and over a shrunken projection cap."""
    rng = np.random.default_rng(18)
    dim = 2000
    pools = [rng.choice(dim, size=50, replace=False) for _ in range(8)]
    X = np.zeros((300, dim))
    for i in range(300):
        idx = rng.choice(pools[rng.integers(8)], size=int(rng.integers(25, 36)), replace=False)
        X[i, idx] = rng.normal(size=idx.size) + 1.0
    X[37] = 0.0
    cfgs = [LshConfig("srp", dim, 0.0, 3, 40, 8, 43), LshConfig("l2", dim, 2.5, 1, 40, 500, 44),
            LshConfig("l2", dim, 2.5, 3, 40, 100_000, 45), LshConfig("l1", dim, 20.0, 2, 40, 100_000, 46)]
    out = []
    for cap in (lsh._MAX_COMPONENTS, 30_000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lsh, "_MAX_COMPONENTS", cap)
            for cfg in cfgs:
                s = _built(cfg, X[:250])
                out += [hash_matrix(cfg, X).tobytes(), s.to_bytes(),
                        s.raw_query_matrix(X[250:]).tobytes()]
                s.remove_matrix(X[50:150])
                out += [s.to_bytes(), hash_matrix(cfg, np.zeros((5, dim))).tobytes()]
    return out


STAGED = LshConfig("l1", 16, 1.0, 2, 40, 5000, 19)


def _staged(X):
    """A sparse STAGED sketch of X whose store holds a staged delta (single
    adds that a read folded) and a log (single adds after that read)."""
    s = _built(STAGED, X[:-8], "sparse")
    s.raw_query_matrix(X[:1])
    for i, x in enumerate(X[-8:]):
        s.add(DataVector.dense(x))
        if i == 3:
            s.raw_query_matrix(X[:1])
    assert s._store.dkeys.size and s._store._log
    return s


def case_staged_merge_chains():
    """Merge chains of sparse stores holding a delta and a log: sparse with
    sparse, sparse with dense and dense with sparse, with writes between."""
    X = _dense_points(400, 16, 15)
    a, b, c = _staged(X[:120]), _staged(X[120:240]), _staged(X[240:330])
    dense = _built(STAGED, X[330:390], "dense")
    ab = a.merge(b)
    ab.add(DataVector.dense(X[390]))
    abc = ab.merge(c)
    mixed = [_staged(X[:120]).merge(dense), dense.merge(_staged(X[120:240]))]
    mixed[1].add(DataVector.dense(X[391]))
    chain = mixed[0].merge(_staged(X[240:330])).merge(mixed[1])
    return [ab.to_bytes(), abc.to_bytes(), abc.raw_query_matrix(X[392:]).tobytes(),
            mixed[0].to_bytes(), mixed[1].to_bytes(), chain.to_bytes()]


def case_staged_to_bytes():
    """to_bytes of a sparse store while a delta is staged, then after more
    single adds and removes."""
    X = _dense_points(200, 16, 16)
    s = _staged(X[:150])
    out = [s.to_bytes()]
    assert s._store.dkeys.size
    for x in X[150:160]:
        s.add(DataVector.dense(x))
    s.remove(DataVector.dense(X[3]))
    out.append(s.to_bytes())
    s.remove_matrix(X[140:150])
    return out + [s.to_bytes(), s.raw_query_matrix(X[170:]).tobytes()]


def case_store_counting():
    """Every way a write reaches the counters: sliding windows of single
    adds and removes under dense l2 (range 64) and srp, read between
    updates; and add_matrix/remove_matrix of wide chunks (more points than
    slots in a row), deep chunks (an auto-dense range of 4000) and one-point
    batches, under dense l2, srp and a sparse store at range 8."""
    X = _dense_points(720, 16, 20)
    l2, srp = LshConfig("l2", 16, 2.0, 1, 256, 64, 20), LshConfig("srp", 16, 0.0, 3, 200, 8, 21)
    out = []
    for cfg in (l2, srp):
        s = RaceSketch(cfg)
        for t, x in enumerate(X[:150]):
            s.add(DataVector.dense(x))
            if t >= 40:
                s.remove(DataVector.dense(X[t - 40]))
            if t % 29 == 0:
                out.append(s.raw_query_matrix(X[700:]).tobytes())
        out.append(s.to_bytes())
    deep = LshConfig("l2", 16, 1.0, 1, 40, 4000, 22)
    narrow = LshConfig("l2", 16, 2.0, 1, 60, 8, 23)
    for cfg, storage in ((l2, "auto"), (srp, "auto"), (deep, "auto"), (narrow, "sparse")):
        s = _built(cfg, X[:600], storage)
        out += [s.to_bytes(), s.raw_query_matrix(X[700:]).tobytes()]
        s.remove_matrix(X[100:400])
        s.add_matrix(X[600:601])
        s.remove_matrix(X[:1])
        out += [s.to_bytes(), s.raw_query_matrix(X[700:]).tobytes()]
    return out


CASES = {f.__name__[5:]: f for f in (
    case_dense_l2, case_srp, case_sparse_add_stream, case_sparse_window,
    case_sparse_matrix_updates, case_sparse_merge, case_storages_merge, case_srp_powers,
    case_l2_powers, case_l1_powers, case_l1_mixed_fold, case_over_cap, case_hash_all_dense,
    case_staged_merge_chains, case_staged_to_bytes, case_hash_all_sparse, case_kernel_values,
    case_batch_used_columns, case_store_counting,
)}

DIGESTS = {
    "batch_used_columns": "9e9ca1ca6ad563a2aaf2a08916807fc650eff32077b0c7f7a3116f517b482158",
    "dense_l2": "93e3e0fca6482df322d1e7859f56169d265f600eb9febbbd48714b03b68aa967",
    "hash_all_dense": "3ff5a5eb03a2d12305dc26dab1f47ec960ba2383f31500f5a28465d936e0af1d",
    "hash_all_sparse": "b7e7e18245305cd4335c259c7ef9b0016bed55edb87ede2db10b85310c95aa35",
    "kernel_values": "7333f0ad912a18b4871ae2d926500bc724788649c7ed4e419d95a96636bf2cf7",
    "l1_mixed_fold": "3660565711698a2ce580ff821f2a188f94a43d6b7d295ff239bc6d98e91988b9",
    "l1_powers": "f42087916cab1512b60d868c01431e2bd88ce68850c1ab6b639541427787bee3",
    "l2_powers": "2d6d81d889608d31ece19ed4b85251303c1030c19844b8892c35fbf98add947c",
    "over_cap": "817cd2a59a1bc6761b261b5c339f52c6cd4c52510115983200c4f042100a01c9",
    "sparse_add_stream": "a4fe7126b54804a7edac3e3566548b43aa2bc992184bbf641336d6939ba8e682",
    "sparse_matrix_updates": "d606efc78473b50fe9acd329f4941c5cf97ff6f48c9138e749c734512d0657fc",
    "sparse_merge": "ce54a5c590df91c9f1906340fe8de8c093a2ecd1bcb0be5d54dc86d1cfc4a235",
    "sparse_window": "a747598bf7fcbb48889cada6df38dee3f2601dfa8c11239f74eec1945dc33abb",
    "srp": "2c1138d4b541592f680f3b8d5bb9c8f88e687dfbe5e9a44723a1117e5514f466",
    "srp_powers": "2b7403f7ec3fe50c812c94ae78068b2104d665f62e6b69a382b1ebc132804bf7",
    "staged_merge_chains": "e34d7cadf72042c137266b99a267b19e107502fdca7936c36d38f9ea7d8df1ca",
    "staged_to_bytes": "43d4e494de17e45c13b29b2c1a2646ba0e39a7205c3551b78081f5ed1e0c1c1c",
    "storages_merge": "1127055c7ed75a0c2e32a0ac52e66bf96c4c73b4ba920a823d350496bbd27316",
    "store_counting": "09a970c845619989a01956fb29cd47a1eabf847b1993838ce433e0bb8b38eae8",
}


def digest(name: str) -> str:
    h = hashlib.sha256()
    for part in CASES[name]():
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digest(name) == DIGESTS[name]
