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
