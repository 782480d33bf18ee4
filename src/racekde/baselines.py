"""Ground-truth density oracle and the one streaming-capable baseline:
uniform random sampling via a reservoir.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Union

import numpy as np

from .kernels import KernelEval
from .lsh import Family
from .vectors import DataVector, DimensionMismatchError

__all__ = ["exact_kde", "exact_half_power", "ReservoirSample", "sample_bytes"]

Dataset = Union[np.ndarray, Sequence[DataVector]]


def _distances(dataset: Dataset, q: DataVector, kernel: KernelEval) -> np.ndarray:
    if isinstance(dataset, np.ndarray):
        qd = q.to_dense()
        if dataset.ndim != 2 or dataset.shape[1] != q.dim:
            raise DimensionMismatchError("dataset matrix does not match query dimension")
        if kernel.kind is Family.L2:
            return np.linalg.norm(dataset - qd, axis=1)
        if kernel.kind is Family.L1:
            return np.sum(np.abs(dataset - qd), axis=1)
        norms = np.linalg.norm(dataset, axis=1) * np.linalg.norm(qd)
        if np.any(norms == 0.0):
            raise ValueError("angle of a zero vector is undefined")
        cos = np.clip((dataset @ qd) / norms, -1.0, 1.0)
        return np.arccos(cos)
    return np.array([kernel.distance(x, q) for x in dataset])


def exact_kde(dataset: Dataset, q: DataVector, kernel: KernelEval) -> float:
    """Exact mean kernel value between q and every dataset point.

    This is the oracle every estimator is judged against. The dataset may
    be a dense (n, d) matrix or a sequence of DataVectors.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("exact_kde of an empty dataset")
    return float(np.mean(kernel.value(_distances(dataset, q, kernel))))


def exact_half_power(dataset: Dataset, q: DataVector, kernel: KernelEval) -> float:
    """Mean of k**(p/2) over the dataset, as used by the variance bounds."""
    if len(dataset) == 0:
        raise ValueError("exact_half_power of an empty dataset")
    return float(np.mean(kernel.half_power(_distances(dataset, q, kernel))))


def sample_bytes(samples: Iterable[DataVector]) -> int:
    """Byte cost of a stored sample set: 4 bytes per dense entry, 8 per
    sparse nonzero (32-bit values, 32-bit index + 32-bit value)."""
    total = 0
    for x in samples:
        total += 8 * x.values.size if x.is_sparse else 4 * x.dim
    return total


class ReservoirSample:
    """Uniform sample of up to ``capacity`` vectors from a stream
    (Vitter's algorithm R), with an equal-weight density estimate."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.seed = seed
        self.samples: List[DataVector] = []
        self.stream_count = 0
        self._rng = random.Random(seed)

    def add(self, x: DataVector) -> None:
        self.stream_count += 1
        if len(self.samples) < self.capacity:
            self.samples.append(x)
        else:
            j = self._rng.randrange(self.stream_count)
            if j < self.capacity:
                self.samples[j] = x

    def extend(self, xs: Iterable[DataVector]) -> None:
        for x in xs:
            self.add(x)

    def estimate(self, q: DataVector, kernel: KernelEval) -> float:
        """Equal-weight kernel mean over the retained samples."""
        if not self.samples:
            raise ValueError("estimate on an empty reservoir")
        return exact_kde(self.samples, q, kernel)

    def memory_bytes(self) -> int:
        return sample_bytes(self.samples)
