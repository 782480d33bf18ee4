"""Workload definitions and the deterministic input generator.

Every input is a pure function of (workload, seed). The generator writes
the CLI's files in exactly the ``read_dense`` / ``read_sparse`` formats,
with floats printed by ``repr`` so parsing recovers the same doubles the
in-process arrays hold.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    dim: int
    sigma: float
    power: int
    rows: int
    hash_range: int
    sparse: bool
    clusters: int
    n_points: int  # in-process dataset (ingest, merge, queries)
    n_queries: int  # latency and batch query set
    ingest_chunk: int  # items per timed ingest call (one add_matrix or an add loop)
    batch_rows: int  # queries per timed raw_query_matrix call
    window: int  # sliding-window length of the update stream
    shards: int
    n_cli: int  # points in the CLI input file
    n_cli_queries: int
    eval_rows: int  # RACE rows the CLI eval byte budget buys
    nnz: int = 0  # sparse only: nonzeros per vector
    pool: int = 0  # sparse only: support pool per cluster
    center_scale: float = 1.0
    spread: float = 0.25

    @property
    def sketch_sigma(self) -> float:
        # The CLI builds srp sketches with sigma 0.0; match it bit for bit.
        return 0.0 if self.kind == "srp" else self.sigma

    @property
    def eval_budget(self) -> int:
        # cli eval: rows = (budget - header - crc) // (8 * range)
        return 66 + 8 * self.hash_range * self.eval_rows


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="dense-l2",
            kind="l2", dim=32, sigma=2.0, power=1, rows=2000, hash_range=64,
            sparse=False, clusters=16, center_scale=2.0, spread=0.35,
            n_points=4000, n_queries=1000, ingest_chunk=250, batch_rows=1000, window=1000, shards=4,
            n_cli=50, n_cli_queries=20, eval_rows=100,
        ),
        Workload(
            name="srp-angular",
            kind="srp", dim=64, sigma=0.0, power=4, rows=256, hash_range=16,
            sparse=False, clusters=16, center_scale=1.0, spread=0.5,
            n_points=20000, n_queries=1000, ingest_chunk=1000, batch_rows=1000, window=2000, shards=4,
            n_cli=50, n_cli_queries=20, eval_rows=64,
        ),
        Workload(
            name="sparse-l1-wide",
            kind="l1", dim=5000, sigma=40.0, power=1, rows=500, hash_range=100000,
            sparse=True, clusters=16, center_scale=1.0, spread=0.3, nnz=40, pool=60,
            n_points=1000, n_queries=1000, ingest_chunk=20, batch_rows=250, window=300, shards=4,
            n_cli=50, n_cli_queries=20, eval_rows=10,
        ),
    ]
}


def smoke(w: Workload) -> Workload:
    """Tiny sizes of the same workload, for the benchmark's self-test."""
    return replace(
        w, rows=min(w.rows, 64), n_points=80, n_queries=40, ingest_chunk=min(w.ingest_chunk, 40),
        batch_rows=min(w.batch_rows, 20),
        window=20, n_cli=24, n_cli_queries=8, eval_rows=min(w.eval_rows, 9),
    )


@dataclass
class Inputs:
    """Generated points and queries as dense matrices (the densified form for
    sparse workloads); ``X_idx``/``Q_idx`` hold each sparse row's support."""

    X: np.ndarray
    Q: np.ndarray
    X_idx: Optional[List[np.ndarray]]
    Q_idx: Optional[List[np.ndarray]]


def generate(w: Workload, seed: int) -> Inputs:
    ss = np.random.SeedSequence([seed, zlib.crc32(w.name.encode())])
    rng = np.random.default_rng(ss)
    total = w.n_points + w.n_queries
    assign = rng.integers(w.clusters, size=total)
    if not w.sparse:
        centers = rng.normal(scale=w.center_scale, size=(w.clusters, w.dim))
        pts = centers[assign] + rng.normal(scale=w.spread, size=(total, w.dim))
        return Inputs(pts[: w.n_points], pts[w.n_points:], None, None)
    pools = [np.sort(rng.choice(w.dim, size=w.pool, replace=False)) for _ in range(w.clusters)]
    centers = rng.normal(scale=w.center_scale, size=(w.clusters, w.dim))
    dense = np.zeros((total, w.dim))
    supports = []
    for i, c in enumerate(assign):
        idx = np.sort(rng.choice(pools[c], size=w.nnz, replace=False))
        vals = centers[c, idx] + rng.normal(scale=w.spread, size=w.nnz)
        vals[vals == 0.0] = w.spread  # sparse values must be nonzero
        dense[i, idx] = vals
        supports.append(idx)
    return Inputs(
        dense[: w.n_points], dense[w.n_points:], supports[: w.n_points], supports[w.n_points:]
    )


def _line(row: np.ndarray, idx: Optional[np.ndarray]) -> str:
    if idx is None:
        return " ".join(repr(float(v)) for v in row)
    return " ".join(f"{int(i) + 1}:{float(row[i])!r}" for i in idx)


def write_points(path: Path, M: np.ndarray, supports: Optional[List[np.ndarray]]) -> None:
    lines = [_line(M[i], None if supports is None else supports[i]) for i in range(M.shape[0])]
    path.write_text("\n".join(lines) + "\n")
