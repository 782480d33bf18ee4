"""Locality-sensitive hash families.

Three families are supported:

* ``srp``  -- signed random projections, sign(w.x), for the angular kernel.
* ``l2``   -- p-stable Euclidean hashing, floor((w.x + b) / sigma) with
  Gaussian projections.
* ``l1``   -- p-stable Manhattan hashing with Cauchy projections.

Every projection and offset component is a pure function of
(seed, row, concat, dim_index) computed through a counter-based 64-bit
mixer, so a sketch is reproducible from its config alone. The primitives
mix the fresh buffer their caller made, in place, so generating a block
peaks at twice its size. Each config has one read-only projection cache,
next to its offsets and fold keys: the projection column of an input
dimension is generated the first time a hash uses it and kept. A sparse
hash gathers its nnz columns and costs O(nnz * rows * power), so a config
hashed only sparse holds the dimensions seen rather than dim. A batch
(:func:`hash_matrix`, and the sketch's ``add_matrix``, ``remove_matrix``
and ``raw_query_matrix``) asks in the same way for the columns it uses,
those holding a nonzero in some point (:func:`check_points` finds them),
and costs O(n * used columns * rows * power). A single dense hash, and a
batch that uses every column, ask for every column, which puts them in
dimension order once; the cached columns are then the whole projection
matrix W. Only configs whose rows * power * dim fits a 4e6-component cap
are cached, and the same cap bounds the cache's total, evicting the least
recently used config; larger configs generate the projections of each row
chunk on every call. scipy, slow to import, is loaded only to draw srp/l2
projections.

Every hash runs one chunk loop, :func:`slot_blocks`: row chunks outside,
each fetching its projections, offsets and fold keys once (generating them
when the config is not cached), and point chunks inside. A chunk is up to
a few hundred points by as many rows as keep it within 65,536 slots
(0.5 MiB of float64) and twice that many projections, and never more rows
than keep their power * width projection components (width is dim, a
sparse input's nnz, or a batch's used columns) within the 4e6 cap, nor
fewer than one; for inputs wider than a few hundred dimensions, each side
spans at least the width, so the matmul stays efficient. Every temporary of
a hash step is chunk-sized, the gather of a point chunk's used columns
included, so none grows with the number of points in the call.

The p-stable code tuples have unbounded range and are folded to a finite
slot range with a seeded universal-style hash ("rehashing"). The variant
implemented here is identified by :data:`REHASH_FAMILY_ID` and recorded in
serialized sketches, since merged sketches must agree on it bit-for-bit.
At power 1, a row of a chunk whose codes span fewer than half as many
values as the chunk has points is folded by table: each value of the span
is mixed once and every point gathers its slot. Other rows, and every row
at power > 1, mix each code; both ways give the same slots.
"""

from __future__ import annotations

import hashlib
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .vectors import DataVector, DimensionMismatchError, as_real, check_finite

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
    "slot_blocks",
    "slots_for_block",
    "check_points",
    "check_vector",
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
    """splitmix64 finalizer, in place on a uint64 array (wrapping); returns z."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _hash_counter(base: np.uint64, counter: np.ndarray) -> np.ndarray:
    """Two-round mix of a fresh uint64 counter array against a seed-derived
    base, in place; returns counter."""
    counter += _GOLDEN
    _fmix64(counter)
    counter ^= base
    return _fmix64(counter)


def _base(seed: int, tag: np.uint64) -> np.uint64:
    return _fmix64(np.array([int(seed) & _U64_MASK], dtype=np.uint64) ^ tag)[0]


def _to_unit(bits: np.ndarray) -> np.ndarray:
    """Uniform doubles in the open interval (0, 1) from 64-bit words; shifts
    bits in place."""
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


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

    Every field fits the sketch file's header, so every sketch can be
    written: dim and rows lie in [1, 2**32), power in [1, 2**16), hash_range
    below 2**64 with rows * hash_range at most 2**64 (every flat counter key
    row * hash_range + slot fits 64 bits), seed in [0, 2**64), and sigma is
    finite. Anything else raises ValueError. Integer fields go through
    ``operator.index``: a numpy integer becomes an int, a float raises TypeError.
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
        for name in ("dim", "power", "rows", "hash_range", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        for name, bits in (("dim", 32), ("rows", 32), ("power", 16)):
            if not 1 <= getattr(self, name) < 2**bits:
                raise ValueError(f"{name} must lie in [1, 2**{bits})")
        if self.hash_range >= 2**64:
            raise ValueError("hash_range must be below 2**64")
        if self.rows * self.hash_range > 2**64:
            raise ValueError("rows * hash_range exceeds the 64-bit flat-key space")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if self.kind is Family.SRP:
            if self.hash_range != 2**self.power:
                raise ValueError(
                    f"srp range must be 2**power = {2**self.power}, "
                    f"got {self.hash_range}"
                )
        else:
            if self.hash_range < 2:
                raise ValueError("hash_range must be >= 2 for l2/l1")
            if not self.sigma > 0:
                raise ValueError("sigma must be positive for l2/l1")
        if not 0 <= self.seed <= _U64_MASK:
            raise ValueError("seed must lie in [0, 2**64)")


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
    only on (seed, row, concat, dim_index). The counters are hashed, and
    the uniforms mapped, in place: a block peaks at twice its size.
    """
    p = cfg.power
    d = cfg.dim
    rows = np.arange(row_start, row_stop, dtype=np.uint64)
    concats = np.arange(p, dtype=np.uint64)
    dims = np.asarray(np.arange(d) if dim_indices is None else dim_indices, dtype=np.uint64)
    starts = (rows[:, None, None] * np.uint64(p) + concats[None, :, None]) * np.uint64(d)
    u = _to_unit(_hash_counter(_base(cfg.seed, _TAG_PROJ), (starts + dims).ravel()))
    if cfg.kind is Family.L1:
        u -= 0.5
        u *= np.pi
        np.tan(u, out=u)
    else:
        from scipy.special import ndtri  # slow to import; l1 never needs it

        ndtri(u, out=u)
    return u.reshape((row_stop - row_start) * p, dims.size)


def projection_component(cfg: LshConfig, row: int, concat: int, dim_index: int) -> float:
    """Single projection-matrix entry w[row, concat, dim_index]."""
    if not (0 <= row < cfg.rows and 0 <= concat < cfg.power and 0 <= dim_index < cfg.dim):
        raise IndexError("projection component index out of range")
    return float(projection_block(cfg, row, row + 1, np.array([dim_index]))[concat, 0])


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
    u *= cfg.sigma
    return u


def offset_component(cfg: LshConfig, row: int, concat: int) -> float:
    if not (0 <= row < cfg.rows and 0 <= concat < cfg.power):
        raise IndexError("offset component index out of range")
    return float(offset_block(cfg, row, row + 1)[concat])


def _fold_keys(seed: int, row_start: int, row_stop: int) -> np.ndarray:
    """Per-row initial fold states for slot rehashing (uint64, one per row)."""
    rows = np.arange(row_start, row_stop, dtype=np.uint64)
    return _hash_counter(_base(seed, _TAG_REHASH), rows)


def _reduce(z: np.ndarray, hash_range: int) -> np.ndarray:
    """z modulo hash_range, in place on a uint64 array; returns z. Taken as
    z - (z // R) * R, which numpy 2.4 runs in about 5 us on 2000 values
    against 8-9 us for ``%=`` (2 vCPU Xeon)."""
    q = z // np.uint64(hash_range)
    q *= np.uint64(hash_range)
    z -= q
    return z


def _mix_fold(codes: np.ndarray, keys: np.ndarray, hash_range: int) -> np.ndarray:
    """Fold (n, rows, p) int64 code tuples into (n, rows) slots, starting
    each row from its key, in one state buffer."""
    words = codes.view(np.uint64)
    state = keys ^ words[:, :, 0]
    _fmix64(state)
    for j in range(1, codes.shape[2]):
        state ^= words[:, :, j]
        _fmix64(state)
    return _reduce(state, hash_range)


def _table_fold(codes: np.ndarray, keys: np.ndarray, lo: np.ndarray, width: int,
                hash_range: int) -> np.ndarray:
    """The slots of _mix_fold for (n, rows) power-1 codes, for the rows whose
    codes lie in [lo, lo + width): each row folds the width codes from its lo
    once, into a table, and every point gathers its slot from the table. A
    row with codes outside that range gets arbitrary slots of its table, for
    the caller to replace. The codes' buffer is reused for the table
    positions."""
    lo = lo.view(np.uint64)  # the code words, as the mixer reads them
    table = lo[:, None] + np.arange(width, dtype=np.uint64)
    table ^= keys[:, None]
    _reduce(_fmix64(table), hash_range)
    # row * width + code - lo, exact modulo 2**64 in the rows that fit
    at = codes.view(np.uint64)
    at += np.arange(0, table.size, width, dtype=np.uint64) - lo
    return np.take(table, at.view(np.int64), mode="clip")


def _fold(codes: np.ndarray, keys: np.ndarray, hash_range: int) -> np.ndarray:
    """Fold (n, rows, p) int64 code tuples into (n, rows) slots, starting
    each row from its key; the codes are the caller's fresh buffer, which
    the fold may overwrite.

    At power 1, the rows whose codes span fewer than half as many values as
    there are points take :func:`_table_fold`, which mixes each value in the
    widest such span once per row, at most half the mixing of their codes;
    the other rows mix each code (:func:`_mix_fold`). Both give the same
    slots.
    """
    n, m, p = codes.shape
    if p == 1 and n > 1:
        lo = codes.min(axis=0)[:, 0]
        # hi - lo, exact as uint64 for any two int64 codes
        span = codes.max(axis=0)[:, 0].view(np.uint64) - lo.view(np.uint64)
        fits = span < np.uint64(n // 2)
        if fits.any():
            # The wide rows, if any, mix first: the table reuses the codes.
            wide = np.flatnonzero(~fits)
            mixed = _mix_fold(codes[:, wide], keys[wide], hash_range) if wide.size else 0
            out = _table_fold(codes[:, :, 0], keys, lo, int(span[fits].max()) + 1, hash_range)
            out[:, wide] = mixed
            return out
    return _mix_fold(codes, keys, hash_range)


def rehash(code: Sequence[int], row: int, hash_range: int, seed: int) -> int:
    """Universal-style hash of one (row, code tuple) into [0, hash_range).

    Equal tuples in the same row always map to the same slot; distinct
    tuples collide with probability ~1/hash_range.

    The arguments go through ``operator.index``, so a code entry, row,
    range or seed that is not an integer raises TypeError. The slot is that
    of row ``row`` of an l2 config of power len(code), so an empty code, and
    a row, range or seed outside :class:`LshConfig`'s limits, raise
    ValueError.
    """
    code = np.array([operator.index(c) for c in code], dtype=np.int64).reshape(1, 1, -1)
    if code.size == 0:
        raise ValueError("code must hold at least one entry")
    if not 0 <= row < 2**32 - 1:
        raise ValueError("row must lie in [0, 2**32 - 1)")
    # The config whose last row is ``row`` checks the range and the seed.
    cfg = LshConfig(Family.L2, 1, 1.0, code.size, row + 1, hash_range, seed)
    return int(_fold(code, _fold_keys(cfg.seed, row, row + 1), cfg.hash_range)[0, 0])


# Projection components held at once: the cap on the rows of a chunk and on
# the total size of the projection cache.
_MAX_COMPONENTS = 4_000_000
# Slots of a chunk, the unit of every hash step, and half its projections
# (wide inputs aside, see _chunk_shape); 64k float64 slots are 0.5 MiB.
_CHUNK_ITEM_ROWS = 65_536

_HashState = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


def _frozen(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is not None:
        a.flags.writeable = False
    return a


def _offsets_and_keys(cfg: LshConfig, row_start: int, row_stop: int) -> Tuple:
    """Fresh offsets and fold keys of rows [row_start, row_stop); None, None
    for srp."""
    if cfg.kind is Family.SRP:
        return None, None
    return offset_block(cfg, row_start, row_stop), _fold_keys(cfg.seed, row_start, row_stop)


class _Columns:
    """The cached projections of one config: the projection column (the
    rows * power components of one input dimension) of every dimension seen
    so far, plus the config's offsets and fold keys.

    A sparse hash adds the columns of its nonzero dimensions in first-seen
    order, so memory follows the columns seen: ``cols`` grows by doubling and
    ``where`` maps each input dimension to its row of ``cols``, -1 while
    unseen. A dense hash asks for every column, which also puts ``cols`` in
    dimension order once, after which ``cols[:, p0:p1].T`` is the W of rows
    p0 // power to p1 // power. ``cols``, ``b`` and ``keys`` are read-only
    except while ``ensure`` appends; callers hold the lock.
    """

    def __init__(self, cfg: LshConfig):
        self.cfg = cfg
        self.count = 0
        self.ordered = False
        self.where = np.full(cfg.dim, -1, dtype=np.int32)
        self.cols = _frozen(np.empty((0, cfg.rows * cfg.power)))
        self.b, self.keys = map(_frozen, _offsets_and_keys(cfg, 0, cfg.rows))

    @property
    def components(self) -> int:
        return self.count * self.cols.shape[1]

    def ensure(self, dims: Optional[np.ndarray]) -> bool:
        """Generate and append the columns of the unseen dims, or of every
        unseen dimension when dims is None, which also puts ``cols`` in
        dimension order; True if any column was generated."""
        if dims is None:
            if self.ordered:
                return False
            dims = np.arange(self.cfg.dim, dtype=np.int32)
            grew = self.ensure(dims)
            if not np.array_equal(self.where, dims):
                self.cols = _frozen(self.cols[self.where])
                self.where = dims
            self.ordered = True
            return grew
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


# The projection cache, least recently used config first. Only configs whose
# rows * power * dim fits the cap are cached, and ``_MAX_COMPONENTS`` bounds
# the total. Every lookup, growth and eviction holds the lock.
_CACHE: "OrderedDict[LshConfig, _Columns]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def _evict() -> None:
    """Drop least recently used configs until the cached components fit the
    cap."""
    total = sum(c.components for c in _CACHE.values())
    while total > _MAX_COMPONENTS:
        total -= _CACHE.popitem(last=False)[1].components


def _state(
    cfg: LshConfig, row_start: int, row_stop: int, dims: Optional[np.ndarray] = None
) -> _HashState:
    """(W, b, fold keys) of rows [row_start, row_stop) on the input
    dimensions ``dims``, or on every dimension when dims is None: the
    config's cached columns (a read-only view, or one gather of the ``dims``
    columns), generating those not seen yet, or freshly generated when cfg
    is over the cap."""
    if cfg.rows * cfg.power * cfg.dim > _MAX_COMPONENTS:
        W = projection_block(cfg, row_start, row_stop, dims)
        return (W,) + _offsets_and_keys(cfg, row_start, row_stop)
    p0, p1 = row_start * cfg.power, row_stop * cfg.power
    with _CACHE_LOCK:
        cache = _CACHE.get(cfg)
        if cache is None:
            cache = _CACHE[cfg] = _Columns(cfg)
        _CACHE.move_to_end(cfg)
        if cache.ensure(dims):
            _evict()
        at = slice(None) if dims is None else cache.where[dims]
        W = cache.cols[at, p0:p1].T
    if cache.b is None:
        return W, None, None
    return W, cache.b[p0:p1], cache.keys[row_start:row_stop]


def slots_for_block(
    cfg: LshConfig,
    X: np.ndarray,
    W: np.ndarray,
    b: Optional[np.ndarray],
    keys: Optional[np.ndarray],
) -> np.ndarray:
    """Slot indices for a block of rows against a dense point matrix: the
    one projection -> slot step of every hash.

    X is (n, k); W, b are the outputs of projection_block / offset_block
    for m consecutive rows on the same k input dimensions (all dim of them,
    or a sparse point's nonzeros), and ``keys`` their fold keys (None for
    srp). srp packs the sign bits of the projections X @ W.T little-endian
    into uint64 slots (n, m). l2/l1 floor (X @ W.T + b) / sigma into
    (n, m, power) int64 codes, in the product's own buffer, and fold them
    into uint64 slots (n, m), or return the codes unfolded when ``keys`` is
    None. A code outside int64 raises OverflowError.
    """
    proj = X @ W.T
    n = proj.shape[0]
    p = cfg.power
    m = proj.shape[1] // p
    if cfg.kind is Family.SRP:
        bits = (proj >= 0.0).reshape(n, m, p)
        return bits.astype(np.uint64) @ (np.uint64(1) << np.arange(p, dtype=np.uint64))
    proj += b
    proj /= cfg.sigma
    flat = np.floor(proj, out=proj).reshape(-1)
    codes = flat.view(np.int64)
    try:
        with np.errstate(invalid="raise"):
            # A 1-d cast onto its own buffer runs in place.
            np.copyto(codes, flat, casting="unsafe")
    except FloatingPointError:
        raise OverflowError(f"hash code exceeds 64 bits at sigma {cfg.sigma!r}") from None
    codes = codes.reshape(n, m, p)
    if keys is None:
        return codes
    return _fold(codes, keys, cfg.hash_range)


def _row_block_size(cfg: LshConfig, width: int) -> int:
    """The most rows of a chunk or of a hash_blocks block: as many as fit
    the projection cap at this width (dim, a sparse input's nnz, or a
    batch's used columns), at least one."""
    return max(1, min(cfg.rows, _MAX_COMPONENTS // (cfg.power * max(width, 1))))


def hash_blocks(cfg: LshConfig) -> Iterator[Tuple[int, int, np.ndarray, Optional[np.ndarray]]]:
    """Yield (row_start, row_stop, W, b) blocks covering all rows, each as
    many rows as fit the projection cap.

    The arrays are read-only when they come from the config's cached
    projections.
    """
    step = _row_block_size(cfg, cfg.dim)
    for r0 in range(0, cfg.rows, step):
        r1 = min(cfg.rows, r0 + step)
        yield (r0, r1) + _state(cfg, r0, r1)[:2]


def _aligned(k: int) -> int:
    """k rounded down to a multiple of 64 when it is at least 64."""
    return k - k % 64 if k >= 64 else k


def _chunk_shape(cfg: LshConfig, n: int, width: int) -> Tuple[int, int]:
    """(points, rows) of the chunks of n points, for inputs of the given
    width (dim, a sparse input's nnz, or a batch's used columns).

    A chunk holds at most ``_CHUNK_ITEM_ROWS`` slots and twice that many
    projections: about the square root of that many points (more when the
    rows that fit the projection cap are too few to fill it) times as many
    rows as fit. A side shorter than the whole is a multiple of 64: BLAS
    then tiles most chunks as it tiles the unchunked product X @ W.T, so
    their projections match that product bit for bit. Each side also spans
    at least the width, rounded down to a multiple of 64, so the matmul
    packs at most two input values per slot; a chunk of wide inputs can thus
    pass the bound above, though never the projection cap.
    """
    step = _row_block_size(cfg, width)
    cells = max(1, min(_CHUNK_ITEM_ROWS, 2 * _CHUNK_ITEM_ROWS // cfg.power))
    side = width - width % 64
    points = max(1, min(n, max(_aligned(math.isqrt(cells)), _aligned(cells // step), side)))
    return points, max(1, min(step, max(_aligned(cells // points), side)))


def slot_blocks(
    cfg: LshConfig, X: np.ndarray, dims: Optional[np.ndarray] = None
) -> Iterator[Tuple[int, int, int, np.ndarray]]:
    """Yield (row_start, row_stop, point_start, slots): the uint64 slots
    on rows [row_start, row_stop) of a chunk of points of the checked
    float64 matrix X, from point_start on, hashed against the input
    dimensions ``dims`` (every dimension when None). X's columns are
    those dimensions, or every dimension: then each point chunk takes its
    ``dims`` columns, so the gather stays chunk-sized. Chunks have the
    shape of :func:`_chunk_shape`: the outer loop walks row chunks, each
    fetching its own projections, the inner loop walks point chunks."""
    n, width = X.shape
    cols = None
    if dims is not None and dims.size < width:
        cols, width = dims, dims.size
    points, rows = _chunk_shape(cfg, n, width)
    for r0 in range(0, cfg.rows, rows):
        r1 = min(cfg.rows, r0 + rows)
        W, b, keys = _state(cfg, r0, r1, dims)
        for n0 in range(0, n, points):
            block = X[n0 : n0 + points] if cols is None else X[n0 : n0 + points, cols]
            yield r0, r1, n0, slots_for_block(cfg, block, W, b, keys)


def check_points(cfg: LshConfig, X: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """X as a float64 matrix of finite points of cfg's dimension, one per
    row, and the columns it uses: the sorted indices of the columns that
    hold a nonzero, or None when every column does. Raises TypeError for
    complex X, DimensionMismatchError or NonFiniteInputError otherwise.

    A batch hashes against its used columns only (see :func:`slot_blocks`),
    as a sparse vector does against its nonzeros: an all-zero column adds
    nothing to any projection."""
    X = as_real(X)
    if X.ndim != 2 or X.shape[1] != cfg.dim:
        raise DimensionMismatchError(
            f"expected points of dimension {cfg.dim}, got shape {X.shape}"
        )
    check_finite(X)
    used = X.any(axis=0)
    return X, None if used.all() else np.flatnonzero(used)


def check_vector(cfg: LshConfig, x: DataVector) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """x as a one-point matrix of its stored values and the input dimensions
    they stand for (None for a dense x), as :func:`check_points` returns a
    batch; raises DimensionMismatchError unless x has cfg's dimension."""
    if x.dim != cfg.dim:
        raise DimensionMismatchError(f"expected dim {cfg.dim}, got {x.dim}")
    return x.values[None, :], x.indices


def hash_matrix(cfg: LshConfig, X: np.ndarray) -> np.ndarray:
    """Slot indices for every (point, row) pair; X is (n, dim) dense.

    The points hash against the columns of X that hold a nonzero, so a
    batch costs O(n * used columns * rows * power). Returns a uint64 array
    of shape (n, rows) with entries in [0, hash_range).
    """
    return _slots(cfg, *check_points(cfg, X))


def _slots(cfg: LshConfig, X: np.ndarray, dims: Optional[np.ndarray]) -> np.ndarray:
    """Slots (n, rows) of a checked float64 matrix X against the input
    dimensions dims, as in slot_blocks."""
    out = np.empty((X.shape[0], cfg.rows), dtype=np.uint64)
    for r0, r1, n0, slots in slot_blocks(cfg, X, dims):
        out[n0 : n0 + slots.shape[0], r0:r1] = slots
    return out


def hash_all(cfg: LshConfig, x: DataVector) -> np.ndarray:
    """Slot index of x for every row; uint64 array of shape (rows,).

    A sparse x hashes against the columns of its nonzero dimensions only.
    """
    return _slots(cfg, *check_vector(cfg, x))[0]


def _row_codes(cfg: LshConfig, x: DataVector, row: int) -> np.ndarray:
    """Unfolded codes of x for one row: the packed srp code, or the p-tuple."""
    X, dims = check_vector(cfg, x)
    if not 0 <= row < cfg.rows:
        raise IndexError("row out of range")
    W, b, _ = _state(cfg, row, row + 1, dims)
    return slots_for_block(cfg, X, W, b, None)[0, 0]


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
