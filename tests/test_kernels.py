import math

import numpy as np
import pytest

from racekde.kernels import (
    KernelEval,
    angular_collision,
    apply_power,
    l1_collision,
    l2_collision,
    mc_collision,
    rehash_adjust,
)
from racekde.lsh import LshConfig
from racekde.vectors import DataVector


def test_angular_endpoints():
    assert angular_collision(0.0) == 1.0
    assert angular_collision(math.pi / 2) == 0.5
    assert angular_collision(math.pi) == 0.0
    with pytest.raises(ValueError):
        angular_collision(-0.1)


def test_l2_limits():
    assert l2_collision(0.0, 2.0) == 1.0
    assert l2_collision(1e6 * 2.0, 2.0) < 1e-3
    with pytest.raises(ValueError):
        l2_collision(1.0, 0.0)


def test_l1_limits_and_analytic_point():
    sigma = 3.0
    assert l1_collision(0.0, sigma) == 1.0
    expected = 0.5 - math.log(2) / math.pi
    assert l1_collision(sigma, sigma) == pytest.approx(expected, rel=1e-12)


def test_apply_power():
    assert apply_power(1.0, 5) == 1.0
    assert apply_power(0.5, 2) == 0.25
    assert apply_power(0.0, 3) == 0.0


def test_rehash_adjust():
    assert rehash_adjust(1.0, 7) == 1.0
    assert rehash_adjust(0.0, 2) == 0.5
    assert rehash_adjust(0.5, 4) == 0.625


@pytest.mark.parametrize(
    "fn,sigma",
    [(l2_collision, 1.7), (l1_collision, 1.7)],
)
def test_strict_monotonicity(fn, sigma):
    grid = np.linspace(0.0, 10 * sigma, 200)
    vals = fn(grid, sigma)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals >= 0) and np.all(vals <= 1)


def test_mc_identical_inputs_always_collide():
    cfg = LshConfig("l2", 4, 1.0, 2, 10, 8, 1)
    x = DataVector.dense([1.0, 2.0, 3.0, 4.0])
    assert mc_collision(cfg, x, x, 500) == 1.0


def test_mc_symmetric_in_arguments():
    cfg = LshConfig("l2", 4, 1.0, 1, 10, 8, 1)
    x = DataVector.dense([1.0, 0.0, 0.0, 0.0])
    y = DataVector.dense([0.0, 2.0, 0.0, 0.0])
    assert mc_collision(cfg, x, y, 2000) == mc_collision(cfg, y, x, 2000)


def test_mc_srp_orthogonal():
    cfg = LshConfig("srp", 4, 0.0, 1, 10, 2, 2)
    x = DataVector.dense([1.0, 0, 0, 0])
    y = DataVector.dense([0, 1.0, 0, 0])
    rate = mc_collision(cfg, x, y, 10**5)
    assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / 10**5)


def test_mc_matches_rehashed_composition():
    sigma = 1.4
    cfg = LshConfig("l2", 4, sigma, 2, 10, 16, 6)
    x = DataVector.dense([0.0, 0, 0, 0])
    y = DataVector.dense([sigma, 0, 0, 0])
    rate = mc_collision(cfg, x, y, 10**5)
    k = rehash_adjust(apply_power(l2_collision(sigma, sigma), 2), 16)
    se = math.sqrt(k * (1 - k) / 10**5)
    assert abs(rate - k) < 3 * se


def test_kernel_eval_dispatch():
    srp = KernelEval(kind="srp", power=2)
    assert srp.value(math.pi / 2) == 0.25
    l2 = KernelEval(kind="l2", sigma=2.0, power=1, rehash_range=4)
    assert l2.value(0.0) == 1.0  # rehash fixed point at k=1
    plain = KernelEval(kind="l2", sigma=2.0)
    assert plain.value(0.0) == 1.0
    with pytest.raises(ValueError):
        KernelEval(kind="srp", rehash_range=8)
    with pytest.raises(ValueError):
        KernelEval(kind="l2", sigma=-1.0)


def test_half_power():
    k = KernelEval(kind="l2", sigma=1.0, power=4)
    c = 1.3
    assert k.half_power(c) == pytest.approx(l2_collision(c, 1.0) ** 2)


def test_kernel_between_uses_right_metric():
    x = DataVector.dense([1.0, 1.0])
    y = DataVector.dense([0.0, 3.0])
    l1 = KernelEval(kind="l1", sigma=2.0)
    assert l1.between(x, y) == pytest.approx(float(l1_collision(3.0, 2.0)))
    srp = KernelEval(kind="srp")
    assert srp.between(x, x) == 1.0


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["l2", "l1"])
def test_kernel_rejects_non_finite_sigma(kind, sigma):
    with pytest.raises(ValueError, match="sigma"):
        KernelEval(kind=kind, sigma=sigma)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: angular_collision(np.array([0.5, 4.0])), "theta must lie in"),
        (lambda: l2_collision(-1.0, 1.0), "distance must be nonnegative"),
        (lambda: l1_collision(1.0, 0.0), "sigma must be positive"),
        (lambda: l1_collision(-1.0, 1.0), "distance must be nonnegative"),
        (lambda: apply_power(0.5, 0), "power must be >= 1"),
        (lambda: apply_power(1.5, 2), "k must lie in"),
        (lambda: rehash_adjust(0.5, 1), "hash_range must be >= 2"),
        (lambda: rehash_adjust(-0.1, 4), "k must lie in"),
        (lambda: KernelEval(kind="l2", sigma=1.0, power=0), "power must be >= 1"),
        (lambda: KernelEval(kind="l1", sigma=1.0, rehash_range=1), "rehash_range must be >= 2"),
        (lambda: KernelEval(kind="l1"), "sigma must be positive"),
    ],
)
def test_kernel_range_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: l2_collision(math.nan, 1.0),
        lambda: l1_collision(np.array([1.0, math.nan]), 2.0),
        lambda: KernelEval(kind="l2", sigma=1.0).value(math.nan),
        lambda: angular_collision(math.nan),
        lambda: KernelEval(kind="srp").half_power(np.array([0.1, math.nan])),
        lambda: apply_power(math.nan, 2),
        lambda: rehash_adjust(np.array([0.5, math.nan]), 4),
    ],
    ids=["l2", "l1-array", "l2-value", "angular", "srp-half-power", "apply_power", "rehash_adjust"],
)
def test_kernels_refuse_nan(call):
    with pytest.raises(ValueError, match="not NaN|must lie in"):
        call()


@pytest.mark.parametrize("fn", [l2_collision, l1_collision])
def test_pstable_kernels_take_their_limits_where_the_formula_overflows(fn):
    """An infinite distance gives 0, and so does a finite one so far above
    sigma that a term overflows (where none does, the value at 1e308 is
    tiny); a subnormal or tiny distance gives 1; no warning escapes."""
    for sigma in (0.1, 1.0, 4.0):
        assert fn(math.inf, sigma) == 0.0 and type(fn(math.inf, sigma)) is float
        assert 0.0 <= fn(1e308, sigma) < 1e-300
        assert fn(5e-324, sigma) == 1.0 and fn(1e-200, sigma) == 1.0
        far = np.array([0.0, 1.0, 1e308, math.inf, 1e-200])
        out = fn(far, sigma)
        assert np.array_equal(out, [1.0, fn(1.0, sigma), fn(1e308, sigma), 0.0, 1.0])
    assert KernelEval(kind="l2", sigma=1.0).value(1e308) == 0.0
    assert KernelEval(kind="l1", sigma=0.1, power=2).value(math.inf) == 0.0
    assert KernelEval(kind="l2", sigma=1.0, rehash_range=4).value(math.inf) == 0.25


def test_mc_collision_refuses_bad_trials_and_dimensions():
    cfg = LshConfig("l2", 3, 1.0, 1, 4, 16, 2)
    x = DataVector.dense([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="trials must be >= 1"):
        mc_collision(cfg, x, x, 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mc_collision(cfg, x, DataVector.dense([1.0, 0.0]), 10)
