"""Closed-form collision-probability kernels for the hash families, plus a
Monte Carlo collision oracle that validates them.

Each family's collision probability, viewed as a function of distance (or
angle, for signed random projections), is a monotone-decreasing radial
kernel with k(0) = 1. The p-fold concatenation raises it to k**p and
rehashing to a finite range R shifts it to k*(R-1)/R + 1/R.

The l1/l2 closed forms below use the constants that satisfy k(0) = 1
(leading -erf for l2, leading 2/pi for l1); the Monte Carlo oracle is the
arbiter for these expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import vectors
from .lsh import Family, LshConfig, hash_blocks, hash_matrix, slots_for_block
from .vectors import DataVector

__all__ = [
    "KernelEval",
    "angular_collision",
    "l2_collision",
    "l1_collision",
    "apply_power",
    "rehash_adjust",
    "mc_collision",
]

ArrayLike = Union[float, np.ndarray]


def angular_collision(theta: ArrayLike) -> ArrayLike:
    """Collision probability of one signed random projection: 1 - theta/pi.
    An angle outside [0, pi], NaN included, raises ValueError."""
    t = np.asarray(theta, dtype=np.float64)
    if not np.all((t >= 0) & (t <= math.pi)):
        raise ValueError("theta must lie in [0, pi]")
    out = 1.0 - t / math.pi
    return float(out) if np.isscalar(theta) else out


def _pstable(c: ArrayLike, sigma: float, k) -> ArrayLike:
    """A p-stable collision probability at distance c: 1 at distance 0 and
    k(d, sigma / d) at each distance d > 0, a float for scalar c.

    Where a term of k passes the float range (at an infinite distance, and
    at distances many orders of magnitude from sigma), the value is k's
    limit there: 0 above sigma, 1 below. A negative or NaN distance raises
    ValueError."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    c_arr = np.asarray(c, dtype=np.float64)
    if not np.all(c_arr >= 0):
        raise ValueError("distance must be nonnegative, not NaN")
    safe = np.where(c_arr > 0, c_arr, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = k(safe, sigma / safe)
    out = np.where(np.isfinite(out), out, safe < sigma)
    out = np.where(c_arr == 0.0, 1.0, out)
    return float(out) if np.isscalar(c) else out


def l2_collision(c: ArrayLike, sigma: float) -> ArrayLike:
    """Collision probability of one Euclidean p-stable hash at distance c."""
    from scipy.special import erf  # slow to import; only this kernel needs it

    return _pstable(c, sigma, lambda d, ratio: -erf(-ratio / math.sqrt(2.0)) - (
        2.0 * d / (sigma * math.sqrt(2.0 * math.pi))
    ) * (1.0 - np.exp(-0.5 * ratio**2)))


def l1_collision(c: ArrayLike, sigma: float) -> ArrayLike:
    """Collision probability of one Manhattan p-stable hash at distance c."""
    return _pstable(c, sigma, lambda d, ratio: (2.0 / math.pi) * np.arctan(ratio) - (
        d / (math.pi * sigma)
    ) * np.log1p(ratio**2))


def _probability(k: ArrayLike) -> np.ndarray:
    """k as a float64 array, refused unless every entry lies in [0, 1]."""
    k_arr = np.asarray(k, dtype=np.float64)
    if not np.all((k_arr >= 0) & (k_arr <= 1)):
        raise ValueError("k must lie in [0, 1]")
    return k_arr


def apply_power(k: ArrayLike, p: int) -> ArrayLike:
    """Collision probability of p concatenated hashes: k**p."""
    if p < 1:
        raise ValueError("power must be >= 1")
    out = _probability(k) ** p
    return float(out) if np.isscalar(k) else out


def rehash_adjust(k: ArrayLike, hash_range: int) -> ArrayLike:
    """Collision probability after rehashing to [0, R): k*(R-1)/R + 1/R."""
    if hash_range < 2:
        raise ValueError("hash_range must be >= 2")
    R = float(hash_range)
    out = _probability(k) * (R - 1.0) / R + 1.0 / R
    return float(out) if np.isscalar(k) else out


@dataclass(frozen=True)
class KernelEval:
    """A family's collision kernel with power and optional rehash adjustment.

    ``rehash_range`` is only meaningful for l2/l1. Leave it None to get the
    plain kernel k**p -- the quantity the debiased rehashed estimator
    targets -- or set it to fold in the rehash shift.
    """

    kind: Family
    sigma: Optional[float] = None
    power: int = 1
    rehash_range: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", Family(self.kind))
        if self.power < 1:
            raise ValueError("power must be >= 1")
        if self.kind is Family.SRP:
            if self.rehash_range is not None:
                raise ValueError("srp kernels are never rehashed")
        elif not (self.sigma and self.sigma > 0):
            raise ValueError("sigma must be positive for l2/l1")
        elif not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if self.rehash_range is not None and self.rehash_range < 2:
            raise ValueError("rehash_range must be >= 2")

    def base(self, dist: ArrayLike) -> ArrayLike:
        """Single-hash collision probability at a distance (angle for srp)."""
        if self.kind is Family.SRP:
            return angular_collision(dist)
        if self.kind is Family.L2:
            return l2_collision(dist, self.sigma)
        return l1_collision(dist, self.sigma)

    def value(self, dist: ArrayLike) -> ArrayLike:
        """Full kernel value: k**p, rehash-adjusted when configured."""
        k = apply_power(self.base(dist), self.power)
        if self.rehash_range is not None:
            k = rehash_adjust(k, self.rehash_range)
        return k

    def half_power(self, dist: ArrayLike) -> ArrayLike:
        """k**(p/2), the quantity in the estimator variance bounds."""
        return np.asarray(self.base(dist), dtype=np.float64) ** (self.power / 2.0)

    def distance(self, x: DataVector, y: DataVector) -> float:
        """The metric this kernel is radial in (angle for srp)."""
        if self.kind is Family.SRP:
            return vectors.angle(x, y)
        if self.kind is Family.L2:
            return vectors.l2_distance(x, y)
        return vectors.l1_distance(x, y)

    def between(self, x: DataVector, y: DataVector) -> float:
        return float(self.value(self.distance(x, y)))


def mc_collision(
    cfg: LshConfig,
    x: DataVector,
    y: DataVector,
    trials: int,
    rehashed: Optional[bool] = None,
) -> float:
    """Empirical collision rate of the full hash of x and y over fresh rows.

    Each trial is an independent row (its own projections and offsets).
    ``rehashed`` controls whether l2/l1 code tuples are compared after
    folding to [0, hash_range) (the default) or as raw tuples; it is
    ignored for srp.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if x.dim != y.dim or x.dim != cfg.dim:
        raise vectors.DimensionMismatchError("dimension mismatch")
    if rehashed is None:
        rehashed = cfg.kind is not Family.SRP
    mc_cfg = replace(cfg, rows=trials)
    X = np.vstack([x.to_dense(), y.to_dense()])
    if cfg.kind is Family.SRP or rehashed:
        slots = hash_matrix(mc_cfg, X)
        hits = slots[0] == slots[1]
    else:
        hits = np.empty(trials, dtype=bool)
        for r0, r1, W, b in hash_blocks(mc_cfg):
            codes = slots_for_block(mc_cfg, X, W, b, None)
            hits[r0:r1] = np.all(codes[0] == codes[1], axis=-1)
    return float(np.mean(hits))
