"""Approximate an arbitrary radial kernel as a fitted linear combination of
estimable collision-kernel powers.

The base collision kernel z(c) is monotone in distance, so target kernels
g(c) can be written as functions of z and approximated by sum_p w_p * z**p.
The weights come from ridge regression on a distance grid; one sketch per
power then turns density estimates of each z**p into an estimate of the
target kernel density.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Tuple

import numpy as np

from .io import PathOrFile, opened
from .kernels import KernelEval
from .lsh import Family
from .sketch import RaceSketch
from .vectors import DataVector

__all__ = ["CompositeModel", "fit_coefficients", "composite_estimate", "default_grid"]


@dataclass(frozen=True)
class CompositeModel:
    """Fitted combination target(c) ~ sum_p coefficients[p] * base(c)**p.

    ``fit_residual`` is the maximum absolute error over the fit grid and is
    always recorded; consumers should treat it as the model's floor error.

    Every model, fitted or loaded, has distinct positive powers with one
    coefficient each, a nonempty grid of finite nonnegative distances, and a
    finite nonnegative residual and ridge; anything else raises ValueError.
    """

    base: KernelEval
    powers: Tuple[int, ...]
    coefficients: Tuple[float, ...]
    fit_grid: Tuple[float, ...]
    fit_residual: float
    ridge: float

    def __post_init__(self):
        if not self.powers:
            raise ValueError("powers must be nonempty")
        if any(p < 1 for p in self.powers):
            raise ValueError("powers must be positive")
        if len(self.powers) != len(self.coefficients):
            raise ValueError("one coefficient per power required")
        if len(set(self.powers)) != len(self.powers):
            raise ValueError("duplicate powers")
        if not self.fit_grid:
            raise ValueError("grid must be nonempty")
        if not all(math.isfinite(g) and g >= 0 for g in self.fit_grid):
            raise ValueError("grid distances must be finite and nonnegative")
        if not (math.isfinite(self.fit_residual) and self.fit_residual >= 0):
            raise ValueError("fit_residual must be finite and >= 0")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError("ridge must be >= 0 and finite")

    def predict(self, distances) -> np.ndarray:
        z = np.asarray(self.base.base(distances), dtype=np.float64)
        out = np.zeros_like(z)
        for p, w in zip(self.powers, self.coefficients):
            out += w * z**p
        return out

    # Text serialization: one key per line, floats rendered with repr so
    # they round-trip exactly.
    def to_text(self) -> str:
        lines = [
            "racekde-composite-model v1",
            f"kind {self.base.kind.value}",
            f"sigma {'-' if self.base.sigma is None else repr(self.base.sigma)}",
            f"powers {' '.join(str(p) for p in self.powers)}",
            f"coefficients {' '.join(repr(w) for w in self.coefficients)}",
            f"grid {' '.join(repr(g) for g in self.fit_grid)}",
            f"residual {self.fit_residual!r}",
            f"ridge {self.ridge!r}",
        ]
        return "\n".join(lines) + "\n"

    def save(self, sink: PathOrFile) -> None:
        with opened(sink, "w") as f:
            f.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "CompositeModel":
        fields = {}
        lines = text.strip().splitlines()
        if not lines or lines[0] != "racekde-composite-model v1":
            raise ValueError("not a composite model document")
        for line in lines[1:]:
            key, _, rest = line.partition(" ")
            fields[key] = rest
        keys = ("kind", "sigma", "powers", "coefficients", "grid", "residual", "ridge")
        missing = [key for key in keys if key not in fields]
        if missing:
            raise ValueError(f"composite model document lacks {', '.join(missing)}")
        sigma = None if fields["sigma"] == "-" else float(fields["sigma"])
        base = KernelEval(kind=Family(fields["kind"]), sigma=sigma)
        return cls(
            base=base,
            powers=tuple(int(p) for p in fields["powers"].split()),
            coefficients=tuple(float(w) for w in fields["coefficients"].split()),
            fit_grid=tuple(float(g) for g in fields["grid"].split()),
            fit_residual=float(fields["residual"]),
            ridge=float(fields["ridge"]),
        )

    @classmethod
    def load(cls, source: PathOrFile) -> "CompositeModel":
        with opened(source) as f:
            return cls.from_text(f.read())


def default_grid(base: KernelEval, points: int = 64) -> np.ndarray:
    """Log-spaced distances where the base kernel falls from 0.99 to 0.01."""
    lo = _invert(base, 0.99)
    hi = _invert(base, 0.01)
    return np.geomspace(lo, hi, points)


def _invert(base: KernelEval, k: float) -> float:
    # Bisection on the monotone-decreasing base collision curve.
    lo, hi = 1e-12, 1.0
    while float(base.base(hi)) > k:
        hi *= 2.0
        if hi > 1e15:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(base.base(mid)) > k:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_coefficients(
    target: Callable[[np.ndarray], np.ndarray],
    base: KernelEval,
    powers: Sequence[int],
    grid: Sequence[float],
    ridge: float = 0.0,
) -> CompositeModel:
    """Ridge-regress target(c) onto {base(c)**p : p in powers} over a grid.

    Minimizes sum_c (target(c) - sum_p w_p base(c)**p)**2 + ridge*||w||**2
    by the normal equations. Arguments that CompositeModel refuses raise its
    ValueError before any solve; a singular system raises LinAlgError.
    """
    powers = tuple(int(p) for p in powers)
    unfitted = CompositeModel(
        base=base,
        powers=powers,
        coefficients=(0.0,) * len(powers),
        fit_grid=tuple(float(g) for g in grid),
        fit_residual=0.0,
        ridge=float(ridge),
    )
    grid = np.asarray(unfitted.fit_grid)
    z = np.asarray(base.base(grid), dtype=np.float64)
    B = np.column_stack([z**p for p in powers])
    t = np.asarray(target(grid), dtype=np.float64)
    gram = B.T @ B + ridge * np.eye(len(powers))
    w = np.linalg.solve(gram, B.T @ t)
    residual = float(np.max(np.abs(t - B @ w)))
    return dataclasses.replace(
        unfitted, coefficients=tuple(float(v) for v in w), fit_residual=residual
    )


def composite_estimate(
    sketches: Mapping[int, RaceSketch],
    model: CompositeModel,
    q: DataVector,
    groups: int = 9,
) -> float:
    """Weighted sum of per-power sketch estimates: sum_p w_p * est_p(q).

    The sketches must share seed, family, dimension and bandwidth, and
    differ only in power; one sketch per model power is required. No
    renormalization is applied.
    """
    ref = None
    for p in model.powers:
        if p not in sketches:
            raise ValueError(f"missing sketch for power {p}")
        cfg = sketches[p].config
        if cfg.power != p:
            raise ValueError(f"sketch registered for power {p} has power {cfg.power}")
        ident = (cfg.kind, cfg.dim, cfg.sigma, cfg.seed)
        if ref is None:
            ref = ident
        elif ident != ref:
            raise ValueError("sketches differ in kind/dim/sigma/seed")
    total = 0.0
    for p, w in zip(model.powers, model.coefficients):
        total += w * sketches[p].estimate(q, groups).value
    return total
