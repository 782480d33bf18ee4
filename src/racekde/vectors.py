"""Dense and sparse real vectors with the distance and angle computations
used by the hash families and the exact-density oracle.

All values are finite 64-bit floats. Sparse vectors store sorted
(index, value) pairs with strictly increasing 0-based indices and nonzero
values.
"""

from __future__ import annotations

import math
import operator

import numpy as np


class DimensionMismatchError(ValueError):
    """Raised when two vectors of different dimension are combined."""


class NonFiniteInputError(ValueError):
    """Raised when an input vector or point matrix holds NaN or an infinity."""


def as_real(values) -> np.ndarray:
    """values as a float64 array; raises TypeError for complex input, which
    the float64 conversion would cut to its real part with only a warning."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise TypeError("input holds complex values; only real input is supported")
    return values.astype(np.float64, copy=False)


def check_finite(values: np.ndarray) -> None:
    """Raise NonFiniteInputError unless every entry of values is finite.

    The minimum and the maximum carry any NaN or infinity, so the check
    allocates nothing of the input's size.
    """
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise NonFiniteInputError("input holds NaN or infinite values")


class DataVector:
    """A d-dimensional real vector, stored dense or sparse.

    Use :meth:`dense` or :meth:`sparse` to construct. Instances are
    treated as immutable; the backing arrays must not be modified.
    """

    __slots__ = ("dim", "indices", "values")

    def __init__(self, dim: int, values, indices=None):
        dim = operator.index(dim)
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        values = as_real(values)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        check_finite(values)
        if indices is None:
            if values.shape[0] != dim:
                raise ValueError(
                    f"dense vector has {values.shape[0]} entries, expected {dim}"
                )
        else:
            indices = np.asarray(indices)
            # An empty list reads as float64; any other index must be an integer.
            if indices.size and indices.dtype.kind not in "iu":
                raise TypeError(f"sparse indices must be integers, got {indices.dtype}")
            indices = indices.astype(np.int64, copy=False)
            if indices.shape != values.shape:
                raise ValueError("indices and values must have the same length")
            if indices.size:
                if indices[0] < 0 or indices[-1] >= dim:
                    raise ValueError("sparse index out of range [0, dim)")
                if np.any(np.diff(indices) <= 0):
                    raise ValueError("sparse indices must be strictly increasing")
            if np.any(values == 0.0):
                raise ValueError("sparse values must be nonzero")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "indices", indices)

    def __setattr__(self, name, value):
        raise AttributeError("DataVector is immutable")

    @classmethod
    def dense(cls, values) -> "DataVector":
        values = as_real(values)
        return cls(values.shape[0], values)

    @classmethod
    def sparse(cls, dim: int, indices, values) -> "DataVector":
        return cls(dim, values, indices)

    @property
    def is_sparse(self) -> bool:
        return self.indices is not None

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array of length dim."""
        if self.indices is None:
            return self.values
        out = np.zeros(self.dim, dtype=np.float64)
        out[self.indices] = self.values
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return f"DataVector({kind}, dim={self.dim}, nnz={self.values.size})"


def _check_dims(x: DataVector, y: DataVector) -> None:
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")


def dot(x: DataVector, y: DataVector) -> float:
    """Inner product, supporting any mix of dense and sparse operands."""
    _check_dims(x, y)
    if x.is_sparse and y.is_sparse:
        common, ix, iy = np.intersect1d(
            x.indices, y.indices, assume_unique=True, return_indices=True
        )
        del common
        return float(np.dot(x.values[ix], y.values[iy]))
    if x.is_sparse:
        return float(np.dot(x.values, y.values[x.indices]))
    if y.is_sparse:
        return float(np.dot(y.values, x.values[y.indices]))
    return float(np.dot(x.values, y.values))


def _difference(x: DataVector, y: DataVector) -> np.ndarray:
    """Entrywise x - y restricted to positions where either is nonzero."""
    if x.is_sparse and y.is_sparse:
        union = np.union1d(x.indices, y.indices)
        xv = np.zeros(union.size)
        xv[np.searchsorted(union, x.indices)] = x.values
        yv = np.zeros(union.size)
        yv[np.searchsorted(union, y.indices)] = y.values
        return xv - yv
    return x.to_dense() - y.to_dense()


def l1_distance(x: DataVector, y: DataVector) -> float:
    _check_dims(x, y)
    return float(np.sum(np.abs(_difference(x, y))))


def l2_distance(x: DataVector, y: DataVector) -> float:
    _check_dims(x, y)
    return float(np.linalg.norm(_difference(x, y)))


def angle(x: DataVector, y: DataVector) -> float:
    """Angle between x and y in [0, pi].

    The normalized inner product is clamped to [-1, 1] before arccos so
    that rounding on near-parallel vectors cannot produce NaN. A zero
    vector has no direction and raises ValueError.
    """
    _check_dims(x, y)
    nx = x.norm()
    ny = y.norm()
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angle of a zero vector is undefined")
    if x is y:
        return 0.0
    cos = dot(x, y) / (nx * ny)
    return math.acos(max(-1.0, min(1.0, cos)))
