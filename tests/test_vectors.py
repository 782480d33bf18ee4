import math
import tracemalloc

import numpy as np
import pytest

from racekde.vectors import (
    DataVector,
    DimensionMismatchError,
    NonFiniteInputError,
    angle,
    check_finite,
    dot,
    l1_distance,
    l2_distance,
)


def test_dot_dense():
    x = DataVector.dense([1, 2, 3])
    assert dot(x, DataVector.dense([1, 2, 3])) == 14


def test_dot_zero_vector():
    x = DataVector.dense([1.5, -2.0, 7.0])
    assert dot(x, DataVector.dense([0, 0, 0])) == 0.0


def test_dot_sparse_sparse_single_overlap():
    x = DataVector.sparse(5, [0, 4], [1.0, 2.0])
    y = DataVector.sparse(5, [4], [3.0])
    assert dot(x, y) == 6.0


def test_dot_sparse_dense():
    x = DataVector.sparse(4, [1, 3], [2.0, -1.0])
    y = DataVector.dense([5.0, 1.0, 9.0, 4.0])
    assert dot(x, y) == 2.0 - 4.0


def test_l2_identity():
    x = DataVector.dense([0.3, -1.2, 4.0])
    assert l2_distance(x, x) == 0.0


def test_l1_hand_arithmetic():
    assert l1_distance(DataVector.dense([1, 1]), DataVector.dense([0, 3])) == 3.0


def test_angle_orthogonal():
    assert angle(DataVector.dense([1, 0]), DataVector.dense([0, 1])) == pytest.approx(
        math.pi / 2
    )


def test_angle_zero_vector_errors():
    with pytest.raises(ValueError):
        angle(DataVector.dense([0, 0]), DataVector.dense([1, 0]))


def test_angle_clamps_near_parallel():
    x = DataVector.dense([1.0, 1e-9])
    y = DataVector.dense([1.0, 1.1e-9])
    assert angle(x, y) >= 0.0  # no NaN even when cos rounds past 1


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dot(DataVector.dense([1, 2]), DataVector.dense([1, 2, 3]))


def test_sparse_invariants():
    with pytest.raises(ValueError):
        DataVector.sparse(4, [2, 1], [1.0, 1.0])  # not increasing
    with pytest.raises(ValueError):
        DataVector.sparse(4, [0, 4], [1.0, 1.0])  # index out of range
    with pytest.raises(ValueError):
        DataVector.sparse(4, [0], [0.0])  # zero value
    with pytest.raises(ValueError):
        DataVector.dense([1.0, 2.0])  # fine
        DataVector(3, [1.0, 2.0])  # dense length mismatch


def test_malformed_vectors_rejected():
    """A dimension below 1, values that are not one-dimensional, and sparse
    indices and values of different lengths are refused."""
    for dim in (0, -3):
        with pytest.raises(ValueError, match="dimension must be positive"):
            DataVector(dim, [])
    with pytest.raises(ValueError, match="one-dimensional"):
        DataVector(4, np.ones((2, 2)))
    with pytest.raises(ValueError, match="one-dimensional"):
        DataVector.sparse(4, [[0, 1]], [[1.0, 2.0]])
    for indices, values in (([0, 1], [1.0]), ([2], [1.0, 2.0])):
        with pytest.raises(ValueError, match="same length"):
            DataVector.sparse(4, indices, values)


def test_immutable():
    x = DataVector.dense([1.0])
    with pytest.raises(AttributeError):
        x.dim = 2


@pytest.mark.parametrize("metric", [l1_distance, l2_distance, angle])
def test_symmetry(metric):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = DataVector.dense(rng.normal(size=8))
        y = DataVector.dense(rng.normal(size=8))
        assert metric(x, y) == metric(y, x)


@pytest.mark.parametrize("metric", [l1_distance, l2_distance])
def test_triangle_inequality(metric):
    rng = np.random.default_rng(12)
    for _ in range(100):
        x, y, z = (DataVector.dense(rng.normal(size=6)) for _ in range(3))
        lhs = metric(x, z)
        rhs = metric(x, y) + metric(y, z)
        assert lhs <= rhs + 8 * np.spacing(rhs)


def test_sparse_dense_distances_agree():
    rng = np.random.default_rng(13)
    for _ in range(50):
        dense = rng.normal(size=12)
        dense[rng.random(12) < 0.5] = 0.0
        if not dense.any():
            dense[0] = 1.0
        idx = np.nonzero(dense)[0]
        sparse = DataVector.sparse(12, idx, dense[idx])
        other = DataVector.dense(rng.normal(size=12))
        keep = np.union1d(np.flatnonzero(rng.random(12) < 0.5), [0])
        other_sparse = DataVector.sparse(12, keep, other.values[keep])
        other_dense = DataVector.dense(other_sparse.to_dense())
        dv = DataVector.dense(dense)
        for metric in (l1_distance, l2_distance, angle, dot):
            # Sparse against dense, then two sparse vectors (an index union).
            for y_sparse, y_dense in ((other, other), (other_sparse, other_dense)):
                a = metric(sparse, y_sparse)
                b = metric(dv, y_dense)
                assert a == pytest.approx(b, abs=8 * np.spacing(max(abs(a), abs(b), 1.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(NonFiniteInputError):
        DataVector.dense([1.0, bad])
    with pytest.raises(NonFiniteInputError):
        DataVector.sparse(4, [0, 2], [1.0, bad])


def test_complex_values_rejected():
    """A float64 conversion would keep only the real part, with a warning."""
    for values in ([1 + 2j, 3.0], np.array([1.0, 3.0], dtype=complex)):
        with pytest.raises(TypeError, match="complex"):
            DataVector.dense(values)
        with pytest.raises(TypeError, match="complex"):
            DataVector.sparse(4, [0, 2], values)
        with pytest.raises(TypeError, match="complex"):
            DataVector(2, values)


def test_non_integer_indices_and_dimensions_rejected():
    """Indices and the dimension are taken as integers, never truncated or
    parsed. Numpy integers of any width are integers, and so is an empty
    index list (all-zero sparse input), which numpy reads as float64."""
    for indices in ([1.7, 2.2], np.array([1.0, 2.0]), ["1", "2"], [True, False]):
        with pytest.raises(TypeError, match="sparse indices must be integers"):
            DataVector.sparse(4, indices, [1.0, 2.0])
    for dim in (4.9, 4.0, np.float64(4.0), "4"):
        with pytest.raises(TypeError):
            DataVector(dim, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(TypeError):
            DataVector.sparse(dim, [1, 2], [1.0, 2.0])
    x = DataVector.sparse(np.int64(4), np.array([1, 3], dtype=np.uint8), [1.0, 2.0])
    assert type(x.dim) is int and x.dim == 4 and x.indices.dtype == np.int64
    assert x.to_dense().tolist() == [0.0, 1.0, 0.0, 2.0]
    assert DataVector(np.int32(2), [1.0, 2.0]).dim == 2
    empty = DataVector.sparse(4, [], [])
    assert empty.indices.dtype == np.int64 and not empty.to_dense().any()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finite_check_of_a_matrix_allocates_nothing_of_its_size(bad):
    X = np.ones((400, 1000))
    tracemalloc.start()
    try:
        check_finite(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
    for at in ((0, 0), (399, 999), (123, 456)):
        Y = X.copy()
        Y[at] = bad
        with pytest.raises(NonFiniteInputError):
            check_finite(Y)
    check_finite(np.zeros((0, 3)))


def test_dot_dense_sparse():
    x = DataVector.dense([5.0, 1.0, 9.0, 4.0])
    y = DataVector.sparse(4, [1, 3], [2.0, -1.0])
    assert dot(x, y) == 2.0 - 4.0
    with pytest.raises(DimensionMismatchError):
        dot(x, DataVector.sparse(5, [1], [1.0]))
