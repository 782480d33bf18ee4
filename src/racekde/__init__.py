"""racekde: mergeable counter sketches for kernel density estimation on
vector streams."""

from .baselines import ReservoirSample, exact_half_power, exact_kde
from .composite import CompositeModel, composite_estimate, default_grid, fit_coefficients
from .kernels import (
    KernelEval,
    angular_collision,
    apply_power,
    l1_collision,
    l2_collision,
    mc_collision,
    rehash_adjust,
)
from .io import DatasetFormatError, EvalRecord, read_dense, read_sparse, write_eval_csv
from .lsh import Family, LshConfig, hash_all, hash_matrix
from .sketch import (
    ConfigMismatchError,
    EmptySketchError,
    KdeEstimate,
    RaceSketch,
    SketchFormatError,
    UnmatchedDeletionError,
)
from .vectors import (
    DataVector,
    DimensionMismatchError,
    NonFiniteInputError,
    angle,
    dot,
    l1_distance,
    l2_distance,
)

__all__ = [
    "DataVector",
    "dot",
    "l1_distance",
    "l2_distance",
    "angle",
    "Family",
    "LshConfig",
    "hash_all",
    "hash_matrix",
    "KernelEval",
    "angular_collision",
    "l2_collision",
    "l1_collision",
    "apply_power",
    "rehash_adjust",
    "mc_collision",
    "RaceSketch",
    "KdeEstimate",
    "ConfigMismatchError",
    "EmptySketchError",
    "SketchFormatError",
    "UnmatchedDeletionError",
    "DimensionMismatchError",
    "NonFiniteInputError",
    "DatasetFormatError",
    "EvalRecord",
    "read_dense",
    "read_sparse",
    "write_eval_csv",
    "ReservoirSample",
    "exact_kde",
    "exact_half_power",
    "CompositeModel",
    "fit_coefficients",
    "composite_estimate",
    "default_grid",
]
