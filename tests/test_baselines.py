import math

import numpy as np
import pytest

from racekde.baselines import ReservoirSample, exact_half_power, exact_kde, sample_bytes
from racekde.kernels import KernelEval
from racekde.vectors import DataVector, DimensionMismatchError


def test_exact_kde_self():
    x = DataVector.dense([1.0, 2.0])
    kernel = KernelEval(kind="l2", sigma=1.0)
    assert exact_kde([x], x, kernel) == 1.0


def test_exact_kde_angular_example():
    q = DataVector.dense([1.0, 0.0])
    y = DataVector.dense([0.0, 1.0])
    kernel = KernelEval(kind="srp")
    assert exact_kde([q, y], q, kernel) == pytest.approx(0.75)


def test_exact_kde_matrix_and_list_agree():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 5))
    q = DataVector.dense(rng.normal(size=5))
    kernel = KernelEval(kind="l1", sigma=2.0, power=2)
    as_list = exact_kde([DataVector.dense(r) for r in X], q, kernel)
    as_matrix = exact_kde(X, q, kernel)
    assert as_matrix == pytest.approx(as_list, rel=1e-12)


def test_exact_kde_angular_matrix_and_list_agree():
    """The srp matrix path (cosines against the stacked dataset) agrees with
    the per-pair angles, and refuses a zero vector in the dataset or as the
    query."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 5))
    q = DataVector.dense(rng.normal(size=5))
    kernel = KernelEval(kind="srp", power=3)
    as_list = exact_kde([DataVector.dense(r) for r in X], q, kernel)
    assert exact_kde(X, q, kernel) == pytest.approx(as_list, rel=1e-12)
    with pytest.raises(ValueError, match="zero vector"):
        exact_kde(X, DataVector.dense(np.zeros(5)), kernel)
    X[7] = 0.0
    with pytest.raises(ValueError, match="zero vector"):
        exact_kde(X, q, kernel)


def test_exact_kde_summation_stability():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 4))
    q = DataVector.dense(rng.normal(size=4))
    kernel = KernelEval(kind="l2", sigma=1.5)
    pairwise = exact_kde(X, q, kernel)
    sequential = math.fsum(kernel.between(DataVector.dense(r), q) for r in X) / 100
    assert pairwise == pytest.approx(sequential, rel=1e-12)


def test_exact_kde_permutation_invariant():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(64, 3))
    q = DataVector.dense(rng.normal(size=3))
    kernel = KernelEval(kind="l2", sigma=1.0)
    a = exact_kde(X, q, kernel)
    b = exact_kde(X[rng.permutation(64)], q, kernel)
    assert a == pytest.approx(b, rel=1e-12)


def test_exact_kde_empty_errors():
    with pytest.raises(ValueError):
        exact_kde([], DataVector.dense([1.0]), KernelEval(kind="srp"))


def test_exact_half_power():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 4))
    q = DataVector.dense(rng.normal(size=4))
    kernel = KernelEval(kind="l2", sigma=1.0, power=2)
    base = KernelEval(kind="l2", sigma=1.0, power=1)
    assert exact_half_power(X, q, kernel) == pytest.approx(exact_kde(X, q, base))
    with pytest.raises(ValueError, match="empty dataset"):
        exact_half_power([], q, kernel)


def test_reservoir_full_retention_is_exact():
    rng = np.random.default_rng(4)
    data = [DataVector.dense(rng.normal(size=3)) for _ in range(8)]
    rs = ReservoirSample(capacity=10, seed=0)
    rs.extend(data)
    q = DataVector.dense(rng.normal(size=3))
    kernel = KernelEval(kind="l2", sigma=1.0)
    assert rs.estimate(q, kernel) == exact_kde(data, q, kernel)


def test_reservoir_retention_frequency():
    hits = 0
    runs = 10**4
    marked = 37
    for seed in range(runs):
        rs = ReservoirSample(capacity=10, seed=seed)
        for i in range(100):
            rs.add(i)  # reservoir never inspects elements
        if marked in rs.samples:
            hits += 1
    p = 0.1
    se = math.sqrt(p * (1 - p) / runs)
    assert abs(hits / runs - p) < 3 * se


def test_reservoir_estimate_unbiased():
    rng = np.random.default_rng(5)
    data = [DataVector.dense(rng.normal(size=4)) for _ in range(60)]
    q = DataVector.dense(rng.normal(size=4))
    kernel = KernelEval(kind="l2", sigma=1.0)
    truth = exact_kde(data, q, kernel)
    per_x = np.array([kernel.between(x, q) for x in data])
    estimates = []
    for seed in range(1000):
        rs = ReservoirSample(capacity=8, seed=seed)
        rs.extend(data)
        estimates.append(rs.estimate(q, kernel))
    # variance of an 8-sample mean without replacement, conservative
    se = float(np.std(per_x)) / math.sqrt(8) / math.sqrt(1000)
    assert abs(np.mean(estimates) - truth) < 3 * se


def test_reservoir_empty_estimate_errors():
    rs = ReservoirSample(capacity=3, seed=0)
    with pytest.raises(ValueError):
        rs.estimate(DataVector.dense([1.0]), KernelEval(kind="srp"))


def test_sample_bytes_accounting():
    dense = DataVector.dense([1.0, 2.0, 3.0])
    sparse = DataVector.sparse(100, [4, 7], [1.0, 2.0])
    assert sample_bytes([dense]) == 12
    assert sample_bytes([sparse]) == 16
    assert sample_bytes([dense, sparse]) == 28


def test_reservoir_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        ReservoirSample(0)


@pytest.mark.parametrize("kind", ["srp", "l2", "l1"])
def test_exact_kde_matrix_of_the_wrong_width(kind):
    kernel = KernelEval(kind=kind, sigma=None if kind == "srp" else 1.0)
    q = DataVector.dense([1.0, 2.0, 3.0])
    for dataset in (np.ones((4, 2)), np.ones(3), [DataVector.dense([1.0, 2.0])]):
        with pytest.raises(DimensionMismatchError):
            exact_kde(dataset, q, kernel)
