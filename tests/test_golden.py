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
``to_bytes`` and ``raw_query_matrix``.
"""

import hashlib
import struct

import numpy as np
import pytest

from racekde import DataVector, LshConfig, RaceSketch, hash_matrix

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


CASES = {f.__name__[5:]: f for f in (
    case_dense_l2, case_srp, case_sparse_add_stream, case_sparse_window,
    case_sparse_matrix_updates, case_sparse_merge, case_storages_merge,
)}

DIGESTS = {
    "dense_l2": "93e3e0fca6482df322d1e7859f56169d265f600eb9febbbd48714b03b68aa967",
    "sparse_add_stream": "a4fe7126b54804a7edac3e3566548b43aa2bc992184bbf641336d6939ba8e682",
    "sparse_matrix_updates": "d606efc78473b50fe9acd329f4941c5cf97ff6f48c9138e749c734512d0657fc",
    "sparse_merge": "ce54a5c590df91c9f1906340fe8de8c093a2ecd1bcb0be5d54dc86d1cfc4a235",
    "sparse_window": "a747598bf7fcbb48889cada6df38dee3f2601dfa8c11239f74eec1945dc33abb",
    "srp": "2c1138d4b541592f680f3b8d5bb9c8f88e687dfbe5e9a44723a1117e5514f466",
    "storages_merge": "1127055c7ed75a0c2e32a0ac52e66bf96c4c73b4ba920a823d350496bbd27316",
}


def digest(name: str) -> str:
    h = hashlib.sha256()
    for part in CASES[name]():
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digest(name) == DIGESTS[name]
