"""Shared synthetic-data and calibration helpers for the test suite."""

from __future__ import annotations

import contextlib
import pathlib
import struct
import zlib

import numpy as np

from racekde import DataVector, KernelEval, exact_kde

# The three forms every racekde reader and writer takes a file in.
TARGET_KINDS = ("str", "path", "file")


@contextlib.contextmanager
def as_target(path, kind: str, mode: str = "r"):
    """``path`` as a ``str``, as a ``pathlib.Path``, or as a file the caller
    opened in ``mode``, which must still be open when the block ends."""
    if kind == "file":
        with open(path, mode) as f:
            yield f
            assert not f.closed, "the callee closed its caller's file"
    else:
        yield str(path) if kind == "str" else pathlib.Path(path)


def gaussian_clusters(
    n: int,
    dim: int,
    n_clusters: int,
    seed: int,
    center_scale: float = 1.0,
    spread: float = 0.25,
    extra_queries: int = 0,
):
    """Clustered point cloud plus held-out queries from the same mixture."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=center_scale, size=(n_clusters, dim))
    total = n + extra_queries
    assignment = rng.integers(n_clusters, size=total)
    points = centers[assignment] + rng.normal(scale=spread, size=(total, dim))
    return points[:n], points[n:]


def tune_sigma(
    X: np.ndarray,
    queries: np.ndarray,
    kind: str,
    power: int,
    target: float,
    tol: float = 0.01,
) -> float:
    """Bisect the bandwidth until the mean density over queries hits target."""

    def mean_density(sigma: float) -> float:
        kernel = KernelEval(kind=kind, sigma=sigma, power=power)
        return float(
            np.mean([exact_kde(X, DataVector.dense(q), kernel) for q in queries])
        )

    lo, hi = 1e-6, 1.0
    while mean_density(hi) < target:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("bandwidth search diverged")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        val = mean_density(mid)
        if abs(val - target) < tol:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crafted_file(rows, hash_range, storage_code, payload=bytes(12), items=0, width_log2=0):
    """A CRC-valid l2 sketch file whose header declares rows x hash_range."""
    header = struct.pack(
        "<8sHBBIHIQdQQIB3s", b"RACESKCH", 1, 1, width_log2, 4, 1, rows, hash_range,
        1.0, 7, items, 1, storage_code, bytes(3),
    )
    body = header + payload
    return body + struct.pack("<I", zlib.crc32(body))


def with_field(data, fmt, offset, value):
    """A sketch file with the header field at offset rewritten and its CRC
    redone."""
    body = bytearray(data[:-4])
    struct.pack_into(fmt, body, offset, value)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def with_sigma(data, sigma):
    """A sketch file with its header sigma rewritten and its CRC redone."""
    return with_field(data, "<d", 30, sigma)


def with_items(data, items):
    """A sketch file with its header item count rewritten and its CRC redone."""
    return with_field(data, "<Q", 46, items)


# Configs and points that take each fold path once the hash works in small
# chunks (see ``small_chunks``): 23 points of dimension 5 on 20 rows.
# "l2-table": tight points, wide bins, every row of every chunk is tabled;
# "l1-wide": spread points, narrow bins, every row is mixed;
# "l1-mixed": Cauchy rows of both kinds within one chunk;
# "l2-power3" folds by mixing only, and "srp" packs sign bits.
SMALL_CHUNK_CASES = {
    "l2-table": (("l2", 5, 4.0, 1, 20, 16, 3), 0.05),
    "l1-wide": (("l1", 5, 0.5, 1, 20, 64, 3), 50.0),
    "l1-mixed": (("l1", 5, 1.0, 1, 20, 64, 3), 0.3),
    "l2-power3": (("l2", 5, 1.0, 3, 20, 16, 3), 1.0),
    "srp": (("srp", 5, 0.0, 3, 20, 8, 3), 1.0),
}


def small_chunk_case(name: str, monkeypatch, hash_range=None):
    """(config, points, queries) of a SMALL_CHUNK_CASES case, with the hash
    cut into 7-row blocks and chunks of at most 40 slots; ``hash_range``
    replaces the case's slot range."""
    from racekde import LshConfig, lsh

    fields, scale = SMALL_CHUNK_CASES[name]
    cfg = LshConfig(*fields)
    if hash_range is not None:
        cfg = LshConfig(*fields[:5], hash_range, fields[6])
    monkeypatch.setattr(lsh, "_MAX_COMPONENTS", 7 * cfg.power * cfg.dim)
    monkeypatch.setattr(lsh, "_CHUNK_ITEM_ROWS", 40)
    rng = np.random.default_rng(41)
    centre = rng.normal(size=cfg.dim)
    X = centre + scale * rng.normal(size=(23, cfg.dim))
    Q = centre + scale * rng.normal(size=(9, cfg.dim))
    return cfg, X, Q
