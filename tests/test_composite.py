import io

import numpy as np
import pytest

from racekde.composite import (
    CompositeModel,
    composite_estimate,
    default_grid,
    fit_coefficients,
)
from racekde.kernels import KernelEval
from racekde.lsh import LshConfig
from racekde.sketch import RaceSketch
from racekde.vectors import DataVector

from helpers import TARGET_KINDS, as_target

BASE = KernelEval(kind="l2", sigma=2.0)


def test_recovers_basis_member():
    grid = np.linspace(0.0, 6.0, 50)
    model = fit_coefficients(
        lambda c: np.asarray(BASE.base(c)), BASE, [1, 2, 3], grid, ridge=1e-9
    )
    assert abs(model.coefficients[0] - 1.0) < 1e-6
    assert abs(model.coefficients[1]) < 1e-6
    assert abs(model.coefficients[2]) < 1e-6
    assert model.fit_residual < 1e-6


def test_zero_target_shrinks_with_ridge():
    grid = np.linspace(0.0, 6.0, 30)
    norms = []
    for lam in (1e-3, 1.0, 1e3):
        model = fit_coefficients(lambda c: np.zeros_like(c), BASE, [1, 2], grid, lam)
        norms.append(np.linalg.norm(model.coefficients))
    assert norms[0] >= norms[1] >= norms[2]
    assert norms[-1] < 1e-9


def test_ridge_never_increases_norm():
    grid = np.linspace(0.0, 8.0, 40)
    target = lambda c: np.exp(-(np.asarray(c) ** 2) / 8.0)
    lams = [0.0, 1e-6, 1e-3, 1e-1, 10.0]
    norms = [
        np.linalg.norm(fit_coefficients(target, BASE, [1, 2, 3], grid, lam).coefficients)
        for lam in lams
    ]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_duplicate_powers_rejected():
    with pytest.raises(ValueError):
        fit_coefficients(lambda c: np.zeros_like(c), BASE, [1, 1], [0.0, 1.0], 0.0)


def test_residual_bounds_grid_error():
    grid = np.linspace(0.0, 10.0, 64)
    s = 2.0
    target = lambda c: np.exp(-(np.asarray(c) ** 2) / (2 * s * s))
    model = fit_coefficients(target, BASE, range(1, 7), grid, 1e-8)
    errs = np.abs(target(grid) - model.predict(grid))
    assert float(np.max(errs)) <= model.fit_residual * (1 + 1e-12) + 1e-15


def test_default_grid_spans_kernel_fall():
    grid = default_grid(BASE)
    assert len(grid) == 64
    assert float(BASE.base(grid[0])) > 0.98
    assert float(BASE.base(grid[-1])) < 0.02
    assert np.all(np.diff(grid) > 0)


def test_model_text_roundtrip():
    grid = np.linspace(0.0, 6.0, 16)
    model = fit_coefficients(
        lambda c: np.exp(-np.asarray(c)), BASE, [1, 3], grid, 1e-4
    )
    buf = io.StringIO()
    model.save(buf)
    back = CompositeModel.from_text(buf.getvalue())
    assert back == model


def _sketch_set(powers, n_points=40, seed=9):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_points, 5))
    sketches = {}
    for p in powers:
        cfg = LshConfig("l2", 5, 2.0, p, 50, 32, 7)
        s = RaceSketch(cfg)
        s.add_matrix(X)
        sketches[p] = s
    return sketches, X


def test_single_power_identity():
    sketches, X = _sketch_set([1])
    model = CompositeModel(
        base=BASE,
        powers=(1,),
        coefficients=(1.0,),
        fit_grid=(0.0,),
        fit_residual=0.0,
        ridge=0.0,
    )
    q = DataVector.dense(X[0])
    direct = sketches[1].estimate(q, groups=5).value
    assert composite_estimate(sketches, model, q, groups=5) == direct


def test_zero_weights_give_zero():
    sketches, X = _sketch_set([1, 2])
    model = CompositeModel(
        base=BASE,
        powers=(1, 2),
        coefficients=(0.0, 0.0),
        fit_grid=(0.0,),
        fit_residual=0.0,
        ridge=0.0,
    )
    assert composite_estimate(sketches, model, DataVector.dense(X[1]), 5) == 0.0


def test_linearity():
    sketches, X = _sketch_set([1, 2])
    model = CompositeModel(
        base=BASE,
        powers=(1, 2),
        coefficients=(0.7, -0.2),
        fit_grid=(0.0,),
        fit_residual=0.0,
        ridge=0.0,
    )
    q = DataVector.dense(X[2])
    expected = 0.7 * sketches[1].estimate(q, 5).value - 0.2 * sketches[2].estimate(q, 5).value
    assert composite_estimate(sketches, model, q, 5) == pytest.approx(expected, rel=1e-12)


def test_missing_power_rejected():
    sketches, X = _sketch_set([1])
    model = CompositeModel(
        base=BASE,
        powers=(1, 2),
        coefficients=(1.0, 1.0),
        fit_grid=(0.0,),
        fit_residual=0.0,
        ridge=0.0,
    )
    with pytest.raises(ValueError, match="power 2"):
        composite_estimate(sketches, model, DataVector.dense(X[0]), 5)


def test_config_drift_rejected():
    sketches, X = _sketch_set([1, 2])
    cfg = LshConfig("l2", 5, 3.0, 2, 50, 32, 7)  # different sigma
    drifted = RaceSketch(cfg)
    drifted.add_matrix(X)
    sketches[2] = drifted
    model = CompositeModel(
        base=BASE,
        powers=(1, 2),
        coefficients=(1.0, 1.0),
        fit_grid=(0.0,),
        fit_residual=0.0,
        ridge=0.0,
    )
    with pytest.raises(ValueError, match="differ"):
        composite_estimate(sketches, model, DataVector.dense(X[0]), 5)


def _loaded(**values):
    """CompositeModel.from_text of a valid model's document with some values
    replaced."""
    lines = []
    for line in _model().to_text().splitlines():
        key = line.partition(" ")[0]
        lines.append(f"{key} {values[key]}" if key in values else line)
    return CompositeModel.from_text("\n".join(lines) + "\n")


def _model(**fields):
    base = dict(base=BASE, powers=(1, 2), coefficients=(1.0, 0.5), fit_grid=(0.0,),
                fit_residual=0.0, ridge=0.0)
    return CompositeModel(**{**base, **fields})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _model(coefficients=(1.0,)), "one coefficient per power"),
        (lambda: _model(powers=(2, 2)), "duplicate powers"),
        (lambda: fit_coefficients(np.exp, BASE, [0, 1], [0.0, 1.0]), "powers must be positive"),
        (lambda: fit_coefficients(np.exp, BASE, [1], []), "grid must be nonempty"),
        (lambda: fit_coefficients(np.exp, BASE, [1], [0.0, -1.0]), "nonnegative"),
        (lambda: fit_coefficients(np.exp, BASE, [1], [0.0, 1.0], -1.0), "ridge must be >= 0"),
        (lambda: CompositeModel.from_text("racekde-composite-model v2\n"), "not a composite"),
        (lambda: CompositeModel.from_text(""), "not a composite"),
        (
            lambda: CompositeModel.from_text("racekde-composite-model v1\nkind l2\n"),
            "lacks sigma, powers, coefficients, grid, residual, ridge",
        ),
        # Each message below is unique, so every case keeps its own test id.
        (lambda: _loaded(powers="", coefficients=""), "powers must be nonempty"),
        (lambda: _loaded(powers="0", coefficients="1.0"), "^powers must be positive$"),
        (lambda: _loaded(grid=""), "^grid must be nonempty$"),
        (lambda: _loaded(grid="0.0 nan"), "grid distances must be finite and nonnegative"),
        (lambda: _loaded(grid="0.0 -1.0"), "distances must be finite and nonnegative$"),
        (lambda: _loaded(residual="nan"), "fit_residual must be finite"),
        (lambda: _loaded(residual="-1.0"), "fit_residual must be finite and >= 0"),
        (lambda: _loaded(ridge="-3"), "^ridge must be >= 0"),
        (lambda: _loaded(ridge="inf"), "ridge must be >= 0 and finite"),
        (lambda: fit_coefficients(np.exp, BASE, [], [0.0, 1.0]), "^powers must be nonempty$"),
        (lambda: fit_coefficients(np.exp, BASE, [1], [0.0, np.inf]), "finite"),
    ],
)
def test_composite_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_sketch_of_another_power_rejected():
    sketches, X = _sketch_set([1, 2])
    sketches[1], sketches[2] = sketches[2], sketches[1]
    with pytest.raises(ValueError, match="registered for power 1 has power 2"):
        composite_estimate(sketches, _model(), DataVector.dense(X[0]), 5)


def test_model_load_from_path_and_stream(tmp_path):
    model = _model()
    path = tmp_path / "model.txt"
    model.save(str(path))
    assert CompositeModel.load(str(path)) == model
    with open(path) as f:
        assert CompositeModel.load(f) == model


@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_model_save_and_load_take_a_path_or_a_file(tmp_path, kind):
    model = _model()
    path = tmp_path / "model.txt"
    with as_target(path, kind, "w") as sink:
        model.save(sink)
    assert path.read_text() == model.to_text()
    with as_target(path, kind) as source:
        assert CompositeModel.load(source) == model
