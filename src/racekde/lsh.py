"""Locality-sensitive hash families.

Three families are supported:

* ``srp``  -- signed random projections, sign(w.x), for the angular kernel.
* ``l2``   -- p-stable Euclidean hashing, floor((w.x + b) / sigma) with
  Gaussian projections.
* ``l1``   -- p-stable Manhattan hashing with Cauchy projections.

Every projection and offset component is a pure function of
(seed, row, concat, dim_index) computed through a counter-based 64-bit
mixer, so a sketch is reproducible from its config alone. Dense inputs hash
against a read-only plan (W, b, fold keys) cached per config. Sparse inputs
hash against a per-config column cache instead: the projection column of
each input dimension is generated the first time a vector uses it and kept,
next to the config's offsets and fold keys, so its memory follows the
dimensions seen rather than dim, and a sparse hash gathers its nnz columns
and costs O(nnz * rows * power) without building the dense plan. Both
caches are kept only for configs whose rows * power * dim fits a
4e6-component cap, which also bounds plans and columns together, evicting
the least recently used; larger configs generate row blocks on every call.
scipy, slow to import, is loaded only to draw srp/l2 projections.

The p-stable code tuples have unbounded range and are folded to a finite
slot range with a seeded universal-style hash ("rehashing"). The variant
implemented here is identified by :data:`REHASH_FAMILY_ID` and recorded in
serialized sketches, since merged sketches must agree on it bit-for-bit.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .vectors import DataVector, DimensionMismatchError, check_finite

__all__ = [
    "Family",
    "LshConfig",
    "REHASH_FAMILY_ID",
    "projection_component",
    "projection_block",
    "offset_component",
    "offset_block",
    "srp_hash",
    "pstable_hash",
    "rehash",
    "hash_all",
    "hash_matrix",
    "hash_blocks",
    "slots_for_block",
    "derive_seed",
]


class Family(str, Enum):
    SRP = "srp"
    L2 = "l2"
    L1 = "l1"


# Identifier of the slot-rehashing variant (splitmix64 fold, modulo range).
REHASH_FAMILY_ID = 1

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

_TAG_PROJ = np.uint64(0xA0761D6478BD642F)
_TAG_OFFSET = np.uint64(0xE7037ED1A0B428DB)
_TAG_REHASH = np.uint64(0x8EBC6AF09C88C6E3)

_U64_MASK = (1 << 64) - 1


def _fmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays (wrapping)."""
    z = np.array(z, dtype=np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _hash_counter(base: np.uint64, counter: np.ndarray) -> np.ndarray:
    """Two-round mix of a counter stream against a seed-derived base."""
    z = np.array(counter, dtype=np.uint64, copy=True)
    z += _GOLDEN
    z = _fmix64(z)
    z ^= base
    return _fmix64(z)


def _base(seed: int, tag: np.uint64) -> np.uint64:
    s = np.uint64(int(seed) & _U64_MASK)
    return np.uint64(_fmix64(s ^ tag))


def _to_unit(bits: np.ndarray) -> np.ndarray:
    """Map 64-bit words to uniform doubles in the open interval (0, 1)."""
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def derive_seed(master: int, label: str, index: int = 0) -> int:
    """Derive an independent 64-bit seed from a master seed and a label."""
    key = (int(master) & _U64_MASK).to_bytes(8, "little")
    h = hashlib.blake2b(
        f"{label}:{index}".encode(), key=key, digest_size=8
    ).digest()
    return int.from_bytes(h, "little")


@dataclass(frozen=True)
class LshConfig:
    """Identity of a set of LSH functions.

    Two sketches can be merged only if their configs are identical:
    the config (plus the rehash family id) fully determines every hash.

    ``hash_range`` is the slot range of each row. For SRP it must equal
    2**power (the packed sign bits); for l2/l1 it is the rehash target.
    Slots are 0-based, in [0, hash_range).
    """

    kind: Family
    dim: int
    sigma: float
    power: int
    rows: int
    hash_range: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "kind", Family(self.kind))
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if self.power < 1:
            raise ValueError("power must be >= 1")
        if self.rows < 1:
            raise ValueError("rows must be >= 1")
        if self.kind is Family.SRP:
            if self.hash_range != 2**self.power:
                raise ValueError(
                    f"srp range must be 2**power = {2**self.power}, "
                    f"got {self.hash_range}"
                )
        else:
            if self.hash_range < 2:
                raise ValueError("rehash range must be >= 2")
            if not self.sigma > 0:
                raise ValueError("sigma must be positive for l2/l1")
        if not 0 <= int(self.seed) <= _U64_MASK:
            raise ValueError("seed must fit in 64 unsigned bits")


def projection_block(
    cfg: LshConfig,
    row_start: int,
    row_stop: int,
    dim_indices: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Projection components for rows [row_start, row_stop).

    Returns an array of shape ((row_stop - row_start) * power, k) where k
    is dim (or len(dim_indices) when given, for sparse inputs). Entries are
    standard Gaussian for srp/l2 and standard Cauchy for l1, and depend
    only on (seed, row, concat, dim_index).
    """
    p = cfg.power
    d = cfg.dim
    rows = np.arange(row_start, row_stop, dtype=np.uint64)
    concats = np.arange(p, dtype=np.uint64)
    if dim_indices is None:
        dims = np.arange(d, dtype=np.uint64)
    else:
        dims = np.asarray(dim_indices, dtype=np.uint64)
    counter = (
        (rows[:, None, None] * np.uint64(p) + concats[None, :, None])
        * np.uint64(d)
        + dims[None, None, :]
    )
    u = _to_unit(_hash_counter(_base(cfg.seed, _TAG_PROJ), counter.ravel()))
    if cfg.kind is Family.L1:
        vals = np.tan(np.pi * (u - 0.5))
    else:
        from scipy.special import ndtri  # slow to import; l1 never needs it

        vals = ndtri(u)
    return vals.reshape((row_stop - row_start) * p, dims.size)


def projection_component(cfg: LshConfig, row: int, concat: int, dim_index: int) -> float:
    """Single projection-matrix entry w[row, concat, dim_index]."""
    if not (0 <= row < cfg.rows and 0 <= concat < cfg.power and 0 <= dim_index < cfg.dim):
        raise IndexError("projection component index out of range")
    block = projection_block(
        replace(cfg, rows=row + 1), row, row + 1, np.array([dim_index])
    )
    return float(block[concat, 0])


def offset_block(cfg: LshConfig, row_start: int, row_stop: int) -> np.ndarray:
    """p-stable offsets b in [0, sigma) for rows [row_start, row_stop).

    Shape ((row_stop - row_start) * power,), flattened row-major over
    (row, concat).
    """
    p = cfg.power
    rows = np.arange(row_start, row_stop, dtype=np.uint64)
    concats = np.arange(p, dtype=np.uint64)
    counter = (rows[:, None] * np.uint64(p) + concats[None, :]).ravel()
    u = _to_unit(_hash_counter(_base(cfg.seed, _TAG_OFFSET), counter))
    return u * cfg.sigma


def offset_component(cfg: LshConfig, row: int, concat: int) -> float:
    if not (0 <= row < cfg.rows and 0 <= concat < cfg.power):
        raise IndexError("offset component index out of range")
    return float(offset_block(cfg, row, row + 1)[concat])


def _fold_keys(seed: int, row_start: int, row_stop: int) -> np.ndarray:
    """Per-row initial fold states for slot rehashing (uint64, one per row)."""
    rows = np.arange(row_start, row_stop, dtype=np.uint64)
    return _hash_counter(_base(seed, _TAG_REHASH), rows)


def _fold(codes: np.ndarray, keys: np.ndarray, hash_range: int) -> np.ndarray:
    """Fold (n, rows, p) code tuples into (n, rows) slots, starting each
    row from its key."""
    state = np.broadcast_to(keys[None, :], codes.shape[:2]).copy()
    for j in range(codes.shape[2]):
        state = _fmix64(state ^ codes[:, :, j].astype(np.uint64))
    return state % np.uint64(hash_range)


def _rehash_fold(codes: np.ndarray, row_start: int, hash_range: int, seed: int) -> np.ndarray:
    """Fold integer code tuples into slots in [0, hash_range).

    ``codes`` has shape (n, rows, p) with signed integer entries; the
    result has shape (n, rows). Equal tuples in the same row always map to
    the same slot; distinct tuples collide with probability ~1/hash_range.
    """
    keys = _fold_keys(seed, row_start, row_start + codes.shape[1])
    return _fold(codes, keys, hash_range)


def rehash(code: Sequence[int], row: int, hash_range: int, seed: int) -> int:
    """Universal-style hash of one (row, code tuple) into [0, hash_range)."""
    if hash_range < 2:
        raise ValueError("hash_range must be >= 2")
    arr = np.asarray(code, dtype=np.int64).reshape(1, 1, -1)
    return int(_rehash_fold(arr, row, hash_range, seed)[0, 0])


def _to_slots(
    cfg: LshConfig,
    proj: np.ndarray,
    b: Optional[np.ndarray],
    keys: Optional[np.ndarray],
) -> np.ndarray:
    """The one projection -> slot step of every hash.

    ``proj`` holds the projections (n, m * power) of n points on m
    consecutive rows, with their offsets ``b`` and fold ``keys``. srp packs
    the sign bits little-endian into (n, m) slots. l2/l1 floor
    (proj + b) / sigma into (n, m, power) integer codes and fold them into
    (n, m) slots, or return the codes unfolded when ``keys`` is None.
    """
    n = proj.shape[0]
    p = cfg.power
    m = proj.shape[1] // p
    if cfg.kind is Family.SRP:
        bits = (proj >= 0.0).reshape(n, m, p)
        return bits.astype(np.uint64) @ (np.uint64(1) << np.arange(p, dtype=np.uint64))
    codes = np.floor((proj + b) / cfg.sigma).astype(np.int64).reshape(n, m, p)
    if keys is None:
        return codes
    return _fold(codes, keys, cfg.hash_range)


# Projection components held at once: the cap on a generated row block and
# on the total size of the cache of plans and columns.
_MAX_COMPONENTS = 4_000_000

_HashState = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


def _frozen(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is not None:
        a.flags.writeable = False
    return a


class _Columns:
    """The sparse-hashing cache of one config: the projection column (the
    rows * power components of one input dimension) of every dimension seen
    so far, in first-seen order, plus the config's offsets and fold keys.

    Memory follows the columns seen: ``cols`` grows by doubling and
    ``where`` maps each input dimension to its row of ``cols``, -1 while
    unseen. ``cols``, ``b`` and ``keys`` are read-only except while
    ``ensure`` appends; callers hold the lock.
    """

    def __init__(self, cfg: LshConfig):
        self.cfg = cfg
        self.count = 0
        self.where = np.full(cfg.dim, -1, dtype=np.int32)
        self.cols = _frozen(np.empty((0, cfg.rows * cfg.power)))
        self.b = self.keys = None
        if cfg.kind is not Family.SRP:
            self.b = _frozen(offset_block(cfg, 0, cfg.rows))
            self.keys = _frozen(_fold_keys(cfg.seed, 0, cfg.rows))

    @property
    def components(self) -> int:
        return self.count * self.cols.shape[1]

    def ensure(self, dims: np.ndarray) -> bool:
        """Generate and append the columns of the unseen dims; True if any."""
        new = dims[self.where[dims] < 0]
        if new.size == 0:
            return False
        n, m = self.count, new.size
        block = projection_block(self.cfg, 0, self.cfg.rows, new)
        cols = self.cols
        if n + m > cols.shape[0]:
            size = min(self.cfg.dim, max(2 * cols.shape[0], n + m))
            cols = np.empty((size, cols.shape[1]))
            cols[:n] = self.cols[:n]
        cols.flags.writeable = True
        cols[n : n + m] = block.T
        self.cols = _frozen(cols)
        self.where[new] = np.arange(n, n + m, dtype=np.int32)
        self.count = n + m
        return True


# Hash plans and column sets, each least recently used first. A plan is the
# read-only (W, b, fold keys) of every row of a config, built on its first
# dense hash; a column set (``_Columns``) serves sparse hashes. Only configs
# whose rows * power * dim fits the cap get either, and ``_MAX_COMPONENTS``
# bounds both together: ``_LRU`` orders the ("plan" | "columns", config) keys
# of both caches by last use for eviction. Every lookup, build, growth and
# eviction holds the lock.
_PLANS: "OrderedDict[LshConfig, _HashState]" = OrderedDict()
_COLUMNS: "OrderedDict[LshConfig, _Columns]" = OrderedDict()
_LRU: "OrderedDict[Tuple[str, LshConfig], None]" = OrderedDict()
_CACHES = {"plan": _PLANS, "columns": _COLUMNS}
_CACHE_LOCK = threading.Lock()


def _generate(
    cfg: LshConfig,
    row_start: int,
    row_stop: int,
    dim_indices: Optional[np.ndarray] = None,
) -> _HashState:
    """Fresh (W, b, fold keys) for rows [row_start, row_stop); b and the
    keys are None for srp."""
    W = projection_block(cfg, row_start, row_stop, dim_indices)
    if cfg.kind is Family.SRP:
        return W, None, None
    return W, offset_block(cfg, row_start, row_stop), _fold_keys(cfg.seed, row_start, row_stop)


def _fits(cfg: LshConfig) -> bool:
    return cfg.rows * cfg.power * cfg.dim <= _MAX_COMPONENTS


def _touch(name: str, cfg: LshConfig) -> None:
    _CACHES[name].move_to_end(cfg)
    _LRU[name, cfg] = None
    _LRU.move_to_end((name, cfg))


def _evict() -> None:
    """Drop least recently used plans and column sets until the cached
    components fit the cap."""
    total = sum(W.size for W, _, _ in _PLANS.values())
    total += sum(c.components for c in _COLUMNS.values())
    while total > _MAX_COMPONENTS and _LRU:
        (name, cfg), _ = _LRU.popitem(last=False)
        entry = _CACHES[name].pop(cfg, None)
        if entry is not None:
            total -= entry.components if name == "columns" else entry[0].size


def _plan(cfg: LshConfig) -> Optional[_HashState]:
    """The cached hash plan of cfg, built on first use; None when cfg is
    over the cap, whose rows are generated block by block instead."""
    if not _fits(cfg):
        return None
    with _CACHE_LOCK:
        plan = _PLANS.get(cfg)
        built = plan is None
        if built:
            plan = _PLANS[cfg] = tuple(_frozen(a) for a in _generate(cfg, 0, cfg.rows))
        _touch("plan", cfg)
        if built:
            _evict()
        return plan


def _rows_state(cfg: LshConfig, row_start: int, row_stop: int) -> _HashState:
    """(W, b, fold keys) of rows [row_start, row_stop): read-only views of
    the plan, or freshly generated when cfg is over the cap."""
    plan = _plan(cfg)
    if plan is None:
        return _generate(cfg, row_start, row_stop)
    W, b, keys = plan
    p0, p1 = row_start * cfg.power, row_stop * cfg.power
    if b is None:
        return W[p0:p1], None, None
    return W[p0:p1], b[p0:p1], keys[row_start:row_stop]


def slots_for_block(
    cfg: LshConfig,
    X: np.ndarray,
    W: np.ndarray,
    b: Optional[np.ndarray],
    row_start: int,
    keys: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Slot indices for a block of rows against a dense point matrix.

    X is (n, dim); W, b are the outputs of projection_block / offset_block
    for rows [row_start, row_start + m), and ``keys`` their fold keys
    (derived from the config when omitted). Returns uint64 slots (n, m).
    """
    if keys is None and cfg.kind is not Family.SRP:
        keys = _fold_keys(cfg.seed, row_start, row_start + W.shape[0] // cfg.power)
    return _to_slots(cfg, X @ W.T, b, keys)


def _row_block_size(cfg: LshConfig, n_points: int) -> int:
    # Cap the projection block and the per-chunk slot matrix at a few
    # hundred MB regardless of dim/rows.
    by_matrix = max(1, int(_MAX_COMPONENTS / (cfg.power * cfg.dim)))
    by_points = max(1, int(4e7 / (max(n_points, 1) * cfg.power)))
    return max(1, min(cfg.rows, by_matrix, by_points))


def _blocks(cfg: LshConfig, n_points: int = 1) -> Iterator[Tuple]:
    """Yield (row_start, row_stop, W, b, fold keys) blocks covering all rows."""
    step = _row_block_size(cfg, n_points)
    for r0 in range(0, cfg.rows, step):
        r1 = min(cfg.rows, r0 + step)
        yield (r0, r1) + _rows_state(cfg, r0, r1)


def hash_blocks(
    cfg: LshConfig, n_points: int = 1
) -> Iterator[Tuple[int, int, np.ndarray, Optional[np.ndarray]]]:
    """Yield (row_start, row_stop, W, b) blocks covering all rows.

    The arrays are read-only when they come from the config's cached plan.
    """
    for r0, r1, W, b, _keys in _blocks(cfg, n_points):
        yield r0, r1, W, b


def hash_matrix(cfg: LshConfig, X: np.ndarray) -> np.ndarray:
    """Slot indices for every (point, row) pair; X is (n, dim) dense.

    Returns a uint64 array of shape (n, rows) with entries in
    [0, hash_range).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != cfg.dim:
        raise DimensionMismatchError(
            f"expected points of dimension {cfg.dim}, got shape {X.shape}"
        )
    check_finite(X)
    return _dense_slots(cfg, X)


def _dense_slots(cfg: LshConfig, X: np.ndarray) -> np.ndarray:
    """hash_matrix of an already checked (n, dim) float64 matrix."""
    out = np.empty((X.shape[0], cfg.rows), dtype=np.uint64)
    for r0, r1, W, b, keys in _blocks(cfg, X.shape[0]):
        out[:, r0:r1] = slots_for_block(cfg, X, W, b, r0, keys)
    return out


def _sparse_state(
    cfg: LshConfig, dims: np.ndarray, row_start: int, row_stop: int
) -> _HashState:
    """(W, b, fold keys) of rows [row_start, row_stop) on the input
    dimensions ``dims`` only, W a C-contiguous (rows * power, dims.size)
    array: gathered from the config's cached columns (generating those not
    seen yet), or freshly generated when cfg is over the cap."""
    if not _fits(cfg):
        return _generate(cfg, row_start, row_stop, dims)
    p0, p1 = row_start * cfg.power, row_stop * cfg.power
    with _CACHE_LOCK:
        cache = _COLUMNS.get(cfg)
        if cache is None:
            cache = _COLUMNS[cfg] = _Columns(cfg)
        _touch("columns", cfg)
        if cache.ensure(dims):
            _evict()
        # A C-contiguous copy, as generated blocks are: W @ x.values then runs
        # the same BLAS kernel, so the slots stay bit-identical.
        W = cache.cols[cache.where[dims], p0:p1].T.copy()
    if cache.b is None:
        return W, None, None
    return W, cache.b[p0:p1], cache.keys[row_start:row_stop]


def _sparse_slots(cfg: LshConfig, x: DataVector) -> np.ndarray:
    """hash_all for a sparse vector without touching zero coordinates."""
    out = np.empty(cfg.rows, dtype=np.uint64)
    step = max(1, int(_MAX_COMPONENTS / max(cfg.power * max(x.values.size, 1), 1)))
    for r0 in range(0, cfg.rows, step):
        r1 = min(cfg.rows, r0 + step)
        W, b, keys = _sparse_state(cfg, x.indices, r0, r1)
        out[r0:r1] = _to_slots(cfg, (W @ x.values)[None, :], b, keys)[0]
    return out


def hash_all(cfg: LshConfig, x: DataVector) -> np.ndarray:
    """Slot index of x for every row; uint64 array of shape (rows,)."""
    if x.dim != cfg.dim:
        raise DimensionMismatchError(f"expected dim {cfg.dim}, got {x.dim}")
    if x.is_sparse:
        return _sparse_slots(cfg, x)
    return _dense_slots(cfg, x.values[None, :])[0]


def _row_codes(cfg: LshConfig, x: DataVector, row: int) -> np.ndarray:
    """Unfolded codes of x for one row: the packed srp code, or the p-tuple."""
    if x.dim != cfg.dim:
        raise DimensionMismatchError(f"expected dim {cfg.dim}, got {x.dim}")
    if not 0 <= row < cfg.rows:
        raise IndexError("row out of range")
    if x.is_sparse:
        W, b, _ = _sparse_state(cfg, x.indices, row, row + 1)
    else:
        W, b, _ = _rows_state(cfg, row, row + 1)
    return _to_slots(cfg, (W @ x.values)[None, :], b, None)[0, 0]


def srp_hash(cfg: LshConfig, x: DataVector, row: int) -> int:
    """Packed p-bit sign code of x for one row; bit j is sign(w_j . x) >= 0.

    Ties break as sign(0) := +1, so the zero vector maps to the all-ones
    code.
    """
    if cfg.kind is not Family.SRP:
        raise ValueError("srp_hash requires an srp config")
    return int(_row_codes(cfg, x, row))


def pstable_hash(cfg: LshConfig, x: DataVector, row: int) -> Tuple[int, ...]:
    """p-tuple of floor((w_j . x + b_j) / sigma) codes for one row."""
    if cfg.kind not in (Family.L2, Family.L1):
        raise ValueError("pstable_hash requires an l2 or l1 config")
    return tuple(int(c) for c in _row_codes(cfg, x, row))
