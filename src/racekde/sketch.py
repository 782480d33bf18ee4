"""The RACE counter sketch: streaming add/remove, exact merge,
median-of-means density queries, and bit-exact serialization.

A sketch is an L x R grid of non-negative integer counters plus the
inserted-item count N. Inserting a vector increments one slot per row (the
slot picked by that row's hash), so every row always sums to N, and no
counter exceeds N, which every update and merge keeps below 2**64. Two
sketches built with the same config are mergeable by elementwise addition
with no loss.

Querying reads the L counters at the query's slots. For a finite-range
family (srp) the normalized counter is an unbiased estimate of the
kernel density; for rehashed families (l2/l1) the estimate is debiased by
inverting the rehash collision shift. Both estimators combine rows by
median-of-means for concentration.

Counters live in one of two stores (see ``racekde.counters``): a dense
(rows, R) array, or sorted flat keys ``row * R + slot`` with a log of
writes that reads fold in. Every method below goes through the store's
interface, and the store changes the memory layout and the file size only,
never a counter, an estimate or a merge result.

File format (little-endian), see ``serialize``:

    magic "RACESKCH" | version u16 | kind u8 | counter-width u8 (log2 bytes)
    | dim u32 | power u16 | rows u32 | range u64 | sigma f64 | seed u64
    | items u64 | rehash_family_id u32 | storage u8 | reserved 3 zero bytes
    | row payloads | crc32 u32

Dense row payload: ``range`` counters of the declared width. Sparse row
payload: u64 entry count, then (u64 slot, counter) pairs sorted by slot,
every counter nonzero. The declared width is the narrowest of
{1, 2, 4, 8} bytes that fits the largest counter. Every row of a valid file
sums to ``items``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .counters import STORES, SketchFormatError, UnmatchedDeletionError, nonzero, tally
from .io import PathOrFile, opened
from .lsh import (
    Family,
    LshConfig,
    REHASH_FAMILY_ID,
    check_points,
    hash_all,
    slot_blocks,
)
from .vectors import DataVector

__all__ = [
    "RaceSketch",
    "KdeEstimate",
    "ConfigMismatchError",
    "UnmatchedDeletionError",
    "SketchFormatError",
    "ace_variance_bound",
    "rehashed_variance_bound",
    "relative_error_bound",
    "HEADER_SIZE",
]

_MAGIC = b"RACESKCH"
_VERSION = 1
_HEADER = struct.Struct("<8sHBBIHIQdQQIB3s")
HEADER_SIZE = _HEADER.size  # 62 bytes
_CRC = struct.Struct("<I")

_KIND_CODES = {Family.SRP: 0, Family.L2: 1, Family.L1: 2}
_KIND_FROM_CODE = {v: k for k, v in _KIND_CODES.items()}

# Rows are kept dense up to this slot range, sparse beyond it.
DENSE_RANGE_LIMIT = 4096

_STORE_FROM_CODE = {cls.code: cls for cls in STORES.values()}


class ConfigMismatchError(ValueError):
    """Raised when merging sketches whose identities differ."""


class EmptySketchError(ValueError):
    """Raised when querying a sketch with no items."""


@dataclass(frozen=True)
class KdeEstimate:
    """A median-of-means density estimate and the group means behind it."""

    value: float
    group_means: np.ndarray
    groups: int


def ace_variance_bound(half_power_sum: float) -> float:
    """Upper bound on Var of a single raw counter: (sum_x k**(p/2))**2."""
    return float(half_power_sum) ** 2


def rehashed_variance_bound(half_power_mean: float, hash_range: int) -> float:
    """Upper bound on Var of one debiased per-row value.

    Evaluates (R/(R-1))**2 * (sqrt((R-1)/R) * Kt + 1/sqrt(R))**2 where Kt
    is the normalized half-power density mean.
    """
    R = float(hash_range)
    inner = np.sqrt((R - 1.0) / R) * np.asarray(half_power_mean) + 1.0 / np.sqrt(R)
    out = (R / (R - 1.0)) ** 2 * inner**2
    return float(out) if np.isscalar(half_power_mean) else out


def relative_error_bound(
    half_power_mean: float,
    density: float,
    hash_range: Optional[int],
    rows: int,
    delta: float,
) -> float:
    """High-probability relative-error bound for the median-of-means query.

    Instantiates the O(sqrt(log(1/delta) / L) / K) memory-bound expression
    with the standard median-of-means constant 32 and the per-row variance
    bound of the applicable estimator.
    """
    if hash_range is None:
        var = np.asarray(half_power_mean) ** 2
    else:
        var = np.asarray(rehashed_variance_bound(half_power_mean, hash_range))
    out = np.sqrt(var * 32.0 * np.log(1.0 / delta) / rows) / np.asarray(density)
    return float(out) if np.isscalar(half_power_mean) else out


# The header's config fields (kind, width, dim, power, rows, range, sigma,
# seed) as one span of bytes, the key of the config cache: equal keys are
# bit-identical configs, which equal floats (0.0 and -0.0) need not be.
_CONFIG_FIELDS = struct.Struct("<BxIHIQdQ")
_CONFIG_OFFSET = struct.calcsize("<8sH")


@functools.lru_cache(maxsize=64)
def _header_config(fields: bytes) -> LshConfig:
    """The validated config of a file header, shared by loads of one config."""
    kind_code, dim, power, rows, hash_range, sigma, seed = _CONFIG_FIELDS.unpack(fields)
    return LshConfig(_KIND_FROM_CODE[kind_code], dim, sigma, power, rows, hash_range, seed)


class RaceSketch:
    """L x R integer counter grid compressing a vector stream.

    ``storage`` is "dense", "sparse", or "auto" (dense when the slot range
    is at most 4096). A dense sketch keeps a (rows, R) counter array; a
    sparse one keeps its nonzero counters as sorted flat keys
    ``row * R + slot`` with a log of writes that reads fold in.
    Storage affects layout and file size only, never the counter values.
    """

    rehash_family_id = REHASH_FAMILY_ID  # the one family from_bytes accepts

    def __init__(self, config: LshConfig, storage: str = "auto"):
        if storage == "auto":
            storage = "dense" if config.hash_range <= DENSE_RANGE_LIMIT else "sparse"
        if storage not in STORES:
            raise ValueError(f"unknown storage mode {storage!r}")
        self._fill(config, STORES[storage](config.rows, config.hash_range), 0)

    def _fill(self, config, store, items) -> "RaceSketch":
        self.config = config
        self._store = store
        self.items = items
        return self

    @property
    def storage(self) -> str:
        """The counter store's layout, "dense" or "sparse"."""
        return self._store.name

    @property
    def _counts(self) -> np.ndarray:
        """The (rows, R) counter array of a dense sketch."""
        return self._store.counts

    def _row_keys(self, slots: np.ndarray, row_start: int = 0) -> np.ndarray:
        """Flat keys row * R + slot, in place, of fresh slots holding one slot
        for each row from row_start on."""
        R = self.config.hash_range
        slots += np.arange(row_start, row_start + slots.shape[-1], dtype=np.uint64) * np.uint64(R)
        return slots

    # ------------------------------------------------------------------ build

    def _counted(self, n: int) -> int:
        """The item count after n more (or, n < 0, fewer) items; raises
        OverflowError past 64 bits and UnmatchedDeletionError below 0.

        This is the one 64-bit bound of the sketch: every row sums to the
        item count, so keeping it below 2**64 bounds every counter, and the
        stores add without a check of their own."""
        if self.items + n >= 2**64:
            raise OverflowError("item count exceeds 64 bits")
        if self.items + n < 0:
            raise UnmatchedDeletionError("removing more items than the sketch holds")
        return self.items + n

    def _update(self, x: DataVector, n: int, update) -> None:
        """Apply the store's add or subtract to x's slots, and n to N."""
        items = self._counted(n)
        keys = self._row_keys(hash_all(self.config, x))
        update(keys, np.ones(keys.size, dtype=np.uint64))
        self.items = items

    def add(self, x: DataVector) -> None:
        """Insert one vector: increments one counter per row and N."""
        self._update(x, 1, self._store.add)

    def remove(self, x: DataVector) -> None:
        """Delete one previously-added vector; errors if it was never added
        (any touched counter at zero)."""
        self._update(x, -1, self._store.subtract)

    def _tallies(self, X: np.ndarray):
        """(flat keys, counts) of the checked points X, one pair per chunk
        of ``slot_blocks``."""
        R = self.config.hash_range
        for r0, r1, _n0, slots in slot_blocks(self.config, X):
            yield tally(self._row_keys(slots), r0 * R, (r1 - r0) * R)

    def _update_matrix(self, X: np.ndarray, sign: int, apply, undo) -> None:
        """Apply the store's add (sign 1) or subtract (sign -1) to the points
        X chunk by chunk, all or nothing: when a chunk raises (an l2/l1 hash
        code past int64, or a counter underflow), those applied before it are
        hashed again and undone; no copy of the counters is kept."""
        X = check_points(self.config, X)
        items = self._counted(sign * X.shape[0])
        done = 0
        try:
            for block in self._tallies(X):
                apply(*block)
                done += 1
        except (OverflowError, UnmatchedDeletionError):
            for block in itertools.islice(self._tallies(X), done):
                undo(*block)
            raise
        self.items = items

    def add_matrix(self, X: np.ndarray) -> None:
        """Bulk insert of dense points, one per matrix row; all or nothing."""
        self._update_matrix(X, 1, self._store.add, self._store.subtract)

    def remove_matrix(self, X: np.ndarray) -> None:
        """Bulk delete of previously-added dense points; all or nothing."""
        self._update_matrix(X, -1, self._store.subtract, self._store.add)

    # ------------------------------------------------------------------ merge

    def _check_mergeable(self, other: "RaceSketch") -> None:
        if self.config == other.config:
            return
        for field in dataclasses.fields(LshConfig):
            a = getattr(self.config, field.name)
            b = getattr(other.config, field.name)
            if a != b:
                raise ConfigMismatchError(
                    f"sketches differ in {field.name}: {a!r} vs {b!r}"
                )

    def merge(self, other: "RaceSketch") -> "RaceSketch":
        """Sketch of the combined streams: elementwise counter sum.

        Raises OverflowError when the item count would exceed 64 bits; no
        counter can then pass 64 bits either, since each is at most the
        item count.
        """
        self._check_mergeable(other)
        items = self._counted(other.items)
        store = self._store.merged(other._store)
        return RaceSketch.__new__(RaceSketch)._fill(self.config, store, items)

    def _dense_counts(self) -> np.ndarray:
        return self._store.dense()

    # ------------------------------------------------------------------ query

    def raw_query(self, q: DataVector) -> np.ndarray:
        """The L counters at the query's slots, one per row."""
        slots = hash_all(self.config, q)
        self._check_nonempty()
        return self._store.gather(self._row_keys(slots))

    def raw_query_matrix(self, Q: np.ndarray) -> np.ndarray:
        """Counters for a batch of dense queries; shape (n, rows), gathered
        chunk by chunk of ``slot_blocks``."""
        Q = check_points(self.config, Q)
        self._check_nonempty()
        out = np.empty((Q.shape[0], self.config.rows), dtype=np.uint64)
        for r0, r1, n0, slots in slot_blocks(self.config, Q):
            out[n0 : n0 + slots.shape[0], r0:r1] = self._store.gather(self._row_keys(slots, r0))
        return out

    def _check_nonempty(self) -> None:
        if self.items < 1:
            raise EmptySketchError("query on an empty sketch")

    def estimate(self, q: DataVector, groups: int = 9) -> KdeEstimate:
        """Median of the means of ``groups`` (odd) groups of L // groups
        counters at q's slots, normalized by N.

        For l2/l1 each group mean is shifted by the rehash floor 1/R and
        rescaled by R/(R-1), which makes it unbiased for the plain kernel
        density; it can be slightly negative for tiny densities and is
        returned as-is (see ``clamped_value``).
        """
        L = self.config.rows
        groups = operator.index(groups)
        if groups < 1 or groups > L:
            raise ValueError(f"groups must lie in [1, {L}], got {groups}")
        if groups % 2 == 0:
            raise ValueError("groups must be odd so the median is a group mean")
        counters = self.raw_query(q)
        size = L // groups
        used = counters[: groups * size].astype(np.float64).reshape(groups, size)
        means = used.sum(axis=1) / size / self.items
        if self.config.kind is not Family.SRP:
            R = float(self.config.hash_range)
            means = (means - 1.0 / R) * R / (R - 1.0)
        # groups is odd, so the median is the middle group mean.
        return KdeEstimate(float(np.sort(means)[groups // 2]), means, groups)

    def estimate_finite(self, q: DataVector, groups: int = 9) -> KdeEstimate:
        """Median-of-means density estimate for a finite-range (srp) sketch."""
        if self.config.kind is not Family.SRP:
            raise ValueError("estimate_finite applies to srp sketches only")
        return self.estimate(q, groups)

    def estimate_rehashed(self, q: DataVector, groups: int = 9) -> KdeEstimate:
        """Debiased median-of-means estimate for a rehashed (l2/l1) sketch."""
        if self.config.kind is Family.SRP:
            raise ValueError("estimate_rehashed applies to l2/l1 sketches only")
        return self.estimate(q, groups)

    @staticmethod
    def clamped_value(estimate: KdeEstimate) -> float:
        """The estimate clamped at 0, for consumers that need a density.

        Clamping re-biases the estimator, so it is opt-in and never applied
        internally.
        """
        return max(0.0, estimate.value)

    # -------------------------------------------------------------- accounting

    def nonzero_fraction(self) -> float:
        total = self.config.rows * self.config.hash_range
        return int(np.count_nonzero(self._store.counters()[1])) / total

    def memory_bytes(self) -> int:
        """Exact size in bytes of the serialized representation."""
        return len(self.to_bytes())

    # ------------------------------------------------------------ serialization

    def to_bytes(self) -> bytes:
        counts = self._store.counters()[1]
        top = int(np.maximum.reduce(counts)) if counts.size else 0
        w = next(w for w in (1, 2, 4, 8) if top < 1 << (8 * w))  # narrowest that fits
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            _KIND_CODES[self.config.kind],
            w.bit_length() - 1,
            self.config.dim,
            self.config.power,
            self.config.rows,
            self.config.hash_range,
            float(self.config.sigma),
            self.config.seed,
            self.items,
            self.rehash_family_id,
            self._store.code,
            b"\x00\x00\x00",
        )
        payload = self._store.payload(w)
        crc = zlib.crc32(payload, zlib.crc32(header))
        return b"".join((header, payload, _CRC.pack(crc)))

    def serialize(self, sink: PathOrFile) -> int:
        """Write to_bytes() to a file object or a path; returns its length."""
        data = self.to_bytes()
        with opened(sink, "wb") as f:
            f.write(data)
        return len(data)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RaceSketch":
        if len(data) < HEADER_SIZE + 4:
            raise SketchFormatError("truncated sketch: shorter than header")
        (magic, version, kind_code, width_log2, _, _, rows, hash_range, _, _, items,
         family_id, storage_code, reserved) = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise SketchFormatError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise SketchFormatError(f"unsupported version {version}")
        (stored_crc,) = _CRC.unpack_from(data, len(data) - 4)
        if zlib.crc32(memoryview(data)[:-4]) != stored_crc:
            raise SketchFormatError("checksum mismatch")
        if kind_code not in _KIND_FROM_CODE:
            raise SketchFormatError(f"unknown family code {kind_code}")
        if width_log2 not in (0, 1, 2, 3):
            raise SketchFormatError(f"bad counter width class {width_log2}")
        store_cls = _STORE_FROM_CODE.get(storage_code)
        if store_cls is None:
            raise SketchFormatError(f"bad storage code {storage_code}")
        if family_id != REHASH_FAMILY_ID:
            raise SketchFormatError(f"unknown rehash family {family_id}")
        if reserved != bytes(3):
            raise SketchFormatError("reserved header bytes are not zero")
        w = 1 << width_log2
        try:
            cfg = _header_config(bytes(data[_CONFIG_OFFSET : _CONFIG_OFFSET + _CONFIG_FIELDS.size]))
        except ValueError as exc:
            raise SketchFormatError(f"invalid config in header: {exc}") from None
        store = store_cls.load(data, HEADER_SIZE, len(data) - 4, rows, hash_range, w)
        if not store.rows_sum_to(items, w):
            raise SketchFormatError(f"row sums disagree with the header item count {items}")
        return cls.__new__(cls)._fill(cfg, store, items)

    @classmethod
    def deserialize(cls, source: Union[PathOrFile, bytes]) -> "RaceSketch":
        if isinstance(source, (bytes, bytearray)):
            data = bytes(source)
        else:
            with opened(source, "rb") as f:
                data = f.read()
        return cls.from_bytes(data)

    # ------------------------------------------------------------------ dunder

    def __eq__(self, other) -> bool:
        if not isinstance(other, RaceSketch):
            return NotImplemented
        if self.config != other.config or self.items != other.items:
            return False
        keys, counts = nonzero(*self._store.counters())
        their_keys, their_counts = nonzero(*other._store.counters())
        return bool(
            np.array_equal(keys, their_keys) and np.array_equal(counts, their_counts)
        )

    def __repr__(self) -> str:
        return (
            f"RaceSketch(kind={self.config.kind.value}, rows={self.config.rows}, "
            f"range={self.config.hash_range}, items={self.items}, "
            f"storage={self.storage})"
        )
