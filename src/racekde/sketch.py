"""The RACE counter sketch: streaming add/remove, exact merge,
median-of-means density queries, and bit-exact serialization.

A sketch is an L x R grid of non-negative integer counters plus the
inserted-item count N. Inserting a vector increments one slot per row (the
slot picked by that row's hash), so every row always sums to N. Two
sketches built with the same config are mergeable by elementwise addition
with no loss.

Querying reads the L counters at the query's slots. For a finite-range
family (srp) the normalized counter is an unbiased estimate of the
kernel density; for rehashed families (l2/l1) the estimate is debiased by
inverting the rehash collision shift. Both estimators combine rows by
median-of-means for concentration.

File format (little-endian), see ``serialize``:

    magic "RACESKCH" | version u16 | kind u8 | counter-width u8 (log2 bytes)
    | dim u32 | power u16 | rows u32 | range u64 | sigma f64 | seed u64
    | items u64 | rehash_family_id u32 | storage u8 | reserved 3 bytes
    | row payloads | crc32 u32

Dense row payload: ``range`` counters of the declared width. Sparse row
payload: u64 entry count, then (u64 slot, counter) pairs sorted by slot.
The declared width is the narrowest of {1, 2, 4, 8} bytes that fits the
largest counter.
"""

from __future__ import annotations

import dataclasses
import io as _io
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Dict, List, Optional, Union

import numpy as np

from .lsh import (
    Family,
    LshConfig,
    REHASH_FAMILY_ID,
    _blocks,
    _row_block_size,
    hash_all,
    hash_matrix,
    slots_for_block,
)
from .vectors import DataVector, DimensionMismatchError

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

_KIND_CODES = {Family.SRP: 0, Family.L2: 1, Family.L1: 2}
_KIND_FROM_CODE = {v: k for k, v in _KIND_CODES.items()}

# Rows are kept dense up to this slot range, sparse dicts beyond it.
DENSE_RANGE_LIMIT = 4096


class ConfigMismatchError(ValueError):
    """Raised when merging sketches whose identities differ."""


class UnmatchedDeletionError(ValueError):
    """Raised when a remove would drive a counter or the item count below 0."""


class SketchFormatError(ValueError):
    """Raised for corrupt or unsupported sketch files."""


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


def _width_bytes(max_counter: int) -> int:
    for w in (1, 2, 4, 8):
        if max_counter < 1 << (8 * w):
            return w
    raise OverflowError("counter exceeds 64 bits")


class RaceSketch:
    """L x R integer counter grid compressing a vector stream.

    ``storage`` is "dense", "sparse", or "auto" (dense when the slot range
    is at most 4096). Storage affects layout and file size only, never the
    counter values.
    """

    def __init__(self, config: LshConfig, storage: str = "auto"):
        if storage == "auto":
            storage = "dense" if config.hash_range <= DENSE_RANGE_LIMIT else "sparse"
        if storage not in ("dense", "sparse"):
            raise ValueError(f"unknown storage mode {storage!r}")
        self.config = config
        self.storage = storage
        self.rehash_family_id = REHASH_FAMILY_ID
        self.items = 0
        if storage == "dense":
            self._counts = np.zeros((config.rows, config.hash_range), dtype=np.uint64)
            self._rows: Optional[List[Dict[int, int]]] = None
        else:
            self._counts = None
            self._rows = [dict() for _ in range(config.rows)]

    # ------------------------------------------------------------------ build

    def add(self, x: DataVector) -> None:
        """Insert one vector: increments one counter per row and N."""
        slots = hash_all(self.config, x)
        if self._counts is not None:
            self._counts[np.arange(self.config.rows), slots.astype(np.int64)] += np.uint64(1)
        else:
            for l, s in enumerate(slots):
                row = self._rows[l]
                row[int(s)] = row.get(int(s), 0) + 1
        self.items += 1

    def remove(self, x: DataVector) -> None:
        """Delete one previously-added vector; errors if it was never added
        (any touched counter at zero)."""
        if self.items < 1:
            raise UnmatchedDeletionError("remove on an empty sketch")
        slots = hash_all(self.config, x)
        if self._counts is not None:
            idx = (np.arange(self.config.rows), slots.astype(np.int64))
            if np.any(self._counts[idx] == 0):
                raise UnmatchedDeletionError("counter underflow: vector not present")
            self._counts[idx] -= np.uint64(1)
        else:
            keys = [int(s) for s in slots]
            if any(self._rows[l].get(s, 0) == 0 for l, s in enumerate(keys)):
                raise UnmatchedDeletionError("counter underflow: vector not present")
            for l, s in enumerate(keys):
                row = self._rows[l]
                row[s] -= 1
                if row[s] == 0:
                    del row[s]
        self.items -= 1

    def add_matrix(self, X: np.ndarray) -> None:
        """Bulk insert of dense points, one per matrix row."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.config.dim:
            raise DimensionMismatchError(
                f"expected points of dimension {self.config.dim}, got {X.shape}"
            )
        n = X.shape[0]
        R = self.config.hash_range
        chunk = max(1, int(2e7 // _row_block_size(self.config, 1)))
        for r0, r1, W, b, keys in _blocks(self.config, min(n, chunk)):
            m = r1 - r0
            local = np.arange(m, dtype=np.uint64) * np.uint64(R)
            for n0 in range(0, n, chunk):
                slots = slots_for_block(self.config, X[n0 : n0 + chunk], W, b, r0, keys)
                if self._counts is not None:
                    flat = (slots + local[None, :]).astype(np.int64).ravel()
                    inc = np.bincount(flat, minlength=m * R)
                    self._counts[r0:r1] += inc.reshape(m, R).astype(np.uint64)
                else:
                    for l in range(m):
                        vals, cnts = np.unique(slots[:, l], return_counts=True)
                        row = self._rows[r0 + l]
                        for s, c in zip(vals, cnts):
                            row[int(s)] = row.get(int(s), 0) + int(c)
        self.items += n

    def remove_matrix(self, X: np.ndarray) -> None:
        """Bulk delete of previously-added dense points."""
        other = RaceSketch(self.config, self.storage)
        other.add_matrix(X)
        self._subtract(other)

    def _subtract(self, other: "RaceSketch") -> None:
        if other.items > self.items:
            raise UnmatchedDeletionError("removing more items than present")
        if self._counts is not None:
            theirs = other._dense_counts()
            if np.any(self._counts < theirs):
                raise UnmatchedDeletionError("counter underflow: vectors not present")
            self._counts -= theirs
        else:
            for l, row in enumerate(other._iter_rows()):
                mine = self._rows[l]
                if any(mine.get(s, 0) < c for s, c in row.items()):
                    raise UnmatchedDeletionError("counter underflow: vectors not present")
            for l, row in enumerate(other._iter_rows()):
                mine = self._rows[l]
                for s, c in row.items():
                    mine[s] -= c
                    if mine[s] == 0:
                        del mine[s]
        self.items -= other.items

    # ------------------------------------------------------------------ merge

    def _check_mergeable(self, other: "RaceSketch") -> None:
        for field in dataclasses.fields(LshConfig):
            a = getattr(self.config, field.name)
            b = getattr(other.config, field.name)
            if a != b:
                raise ConfigMismatchError(
                    f"sketches differ in {field.name}: {a!r} vs {b!r}"
                )
        if self.rehash_family_id != other.rehash_family_id:
            raise ConfigMismatchError(
                f"sketches differ in rehash_family_id: "
                f"{self.rehash_family_id} vs {other.rehash_family_id}"
            )

    def merge(self, other: "RaceSketch") -> "RaceSketch":
        """Sketch of the combined streams: elementwise counter sum."""
        self._check_mergeable(other)
        out = RaceSketch(self.config, self.storage)
        if out._counts is not None:
            out._counts = self._counts + other._dense_counts()
        else:
            for l, (mine, theirs) in enumerate(
                zip(self._iter_rows(), other._iter_rows())
            ):
                row = dict(mine)
                for s, c in theirs.items():
                    row[s] = row.get(s, 0) + c
                out._rows[l] = row
        out.items = self.items + other.items
        return out

    def _dense_counts(self) -> np.ndarray:
        if self._counts is not None:
            return self._counts
        out = np.zeros((self.config.rows, self.config.hash_range), dtype=np.uint64)
        for l, row in enumerate(self._rows):
            for s, c in row.items():
                out[l, s] = c
        return out

    def _iter_rows(self):
        if self._rows is not None:
            yield from self._rows
        else:
            for l in range(self.config.rows):
                nz = np.nonzero(self._counts[l])[0]
                yield {int(s): int(self._counts[l, s]) for s in nz}

    # ------------------------------------------------------------------ query

    def raw_query(self, q: DataVector) -> np.ndarray:
        """The L counters at the query's slots, one per row."""
        if self.items < 1:
            raise EmptySketchError("query on an empty sketch")
        slots = hash_all(self.config, q)
        return self._counters_at(slots[None, :])[0]

    def raw_query_matrix(self, Q: np.ndarray) -> np.ndarray:
        """Counters for a batch of dense queries; shape (n, rows)."""
        if self.items < 1:
            raise EmptySketchError("query on an empty sketch")
        return self._counters_at(hash_matrix(self.config, Q))

    def _counters_at(self, slots: np.ndarray) -> np.ndarray:
        if self._counts is not None:
            return self._counts[
                np.arange(self.config.rows)[None, :], slots.astype(np.int64)
            ]
        out = np.zeros(slots.shape, dtype=np.uint64)
        for i in range(slots.shape[0]):
            for l in range(self.config.rows):
                out[i, l] = self._rows[l].get(int(slots[i, l]), 0)
        return out

    def _group_means(self, counters: np.ndarray, groups: int) -> np.ndarray:
        L = self.config.rows
        if groups < 1 or groups > L:
            raise ValueError(f"groups must lie in [1, {L}], got {groups}")
        if groups % 2 == 0:
            raise ValueError("groups must be odd so the median is a group mean")
        size = L // groups
        used = counters[: groups * size].astype(np.float64).reshape(groups, size)
        return used.mean(axis=1) / self.items

    def estimate_finite(self, q: DataVector, groups: int = 9) -> KdeEstimate:
        """Median-of-means density estimate for a finite-range (srp) sketch."""
        if self.config.kind is not Family.SRP:
            raise ValueError("estimate_finite applies to srp sketches only")
        means = self._group_means(self.raw_query(q), groups)
        return KdeEstimate(float(np.median(means)), means, groups)

    def estimate_rehashed(self, q: DataVector, groups: int = 9) -> KdeEstimate:
        """Debiased median-of-means estimate for a rehashed (l2/l1) sketch.

        Each group mean is shifted by the rehash floor 1/R and rescaled by
        R/(R-1), which makes the per-row value unbiased for the plain
        kernel density. The result can be slightly negative for tiny
        densities and is returned as-is; see ``clamped_value``.
        """
        if self.config.kind is Family.SRP:
            raise ValueError("estimate_rehashed applies to l2/l1 sketches only")
        R = float(self.config.hash_range)
        means = self._group_means(self.raw_query(q), groups)
        debiased = (means - 1.0 / R) * R / (R - 1.0)
        return KdeEstimate(float(np.median(debiased)), debiased, groups)

    def estimate(self, q: DataVector, groups: int = 9) -> KdeEstimate:
        """Dispatch to the estimator matching this sketch's family."""
        if self.config.kind is Family.SRP:
            return self.estimate_finite(q, groups)
        return self.estimate_rehashed(q, groups)

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
        if self._counts is not None:
            nz = int(np.count_nonzero(self._counts))
        else:
            nz = sum(len(row) for row in self._rows)
        return nz / total

    def _counter_width(self) -> int:
        if self._counts is not None:
            peak = int(self._counts.max()) if self._counts.size else 0
        else:
            peak = max((max(row.values(), default=0) for row in self._rows), default=0)
        return _width_bytes(peak)

    def memory_bytes(self) -> int:
        """Exact size in bytes of the serialized representation."""
        w = self._counter_width()
        if self.storage == "dense":
            payload = w * self.config.rows * self.config.hash_range
        else:
            nnz = sum(len(row) for row in self._rows)
            payload = 8 * self.config.rows + (8 + w) * nnz
        return HEADER_SIZE + payload + 4  # trailing crc32

    # ------------------------------------------------------------ serialization

    def to_bytes(self) -> bytes:
        w = self._counter_width()
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
            0 if self.storage == "dense" else 1,
            b"\x00\x00\x00",
        )
        buf = _io.BytesIO()
        buf.write(header)
        cdtype = np.dtype(f"<u{w}")
        if self.storage == "dense":
            buf.write(np.ascontiguousarray(self._dense_counts().astype(cdtype)).tobytes())
        else:
            pair = np.dtype([("slot", "<u8"), ("count", cdtype)])
            for row in self._iter_rows():
                slots = sorted(row)
                buf.write(struct.pack("<Q", len(slots)))
                arr = np.empty(len(slots), dtype=pair)
                arr["slot"] = slots
                arr["count"] = [row[s] for s in slots]
                buf.write(arr.tobytes())
        body = buf.getvalue()
        return body + struct.pack("<I", zlib.crc32(body))

    def serialize(self, sink: Union[BinaryIO, str]) -> None:
        data = self.to_bytes()
        if hasattr(sink, "write"):
            sink.write(data)
        else:
            with open(sink, "wb") as f:
                f.write(data)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RaceSketch":
        if len(data) < HEADER_SIZE + 4:
            raise SketchFormatError("truncated sketch: shorter than header")
        (
            magic,
            version,
            kind_code,
            width_log2,
            dim,
            power,
            rows,
            hash_range,
            sigma,
            seed,
            items,
            family_id,
            storage_code,
            _reserved,
        ) = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise SketchFormatError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise SketchFormatError(f"unsupported version {version}")
        (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
        if zlib.crc32(data[:-4]) != stored_crc:
            raise SketchFormatError("checksum mismatch")
        if kind_code not in _KIND_FROM_CODE:
            raise SketchFormatError(f"unknown family code {kind_code}")
        if width_log2 not in (0, 1, 2, 3):
            raise SketchFormatError(f"bad counter width class {width_log2}")
        if storage_code not in (0, 1):
            raise SketchFormatError(f"bad storage code {storage_code}")
        storage = "dense" if storage_code == 0 else "sparse"
        w = 1 << width_log2
        cdtype = np.dtype(f"<u{w}")
        offset = HEADER_SIZE
        end = len(data) - 4
        # The payload must be able to hold what the header declares before
        # anything of the declared size is allocated.
        if storage == "dense":
            if end - offset != w * rows * hash_range:
                raise SketchFormatError("truncated or oversized dense payload")
        elif end - offset < 8 * rows:
            raise SketchFormatError("truncated sparse payload: too short for its row headers")
        try:
            cfg = LshConfig(
                kind=_KIND_FROM_CODE[kind_code],
                dim=dim,
                sigma=sigma,
                power=power,
                rows=rows,
                hash_range=hash_range,
                seed=seed,
            )
        except ValueError as exc:
            raise SketchFormatError(f"invalid config in header: {exc}") from None
        sketch = cls(cfg, storage)
        sketch.rehash_family_id = family_id
        sketch.items = items
        if storage == "dense":
            counts = np.frombuffer(data, dtype=cdtype, count=rows * hash_range, offset=offset)
            sketch._counts = counts.reshape(rows, hash_range).astype(np.uint64)
        else:
            pair = np.dtype([("slot", "<u8"), ("count", cdtype)])
            for l in range(rows):
                if end - offset < 8:
                    raise SketchFormatError("truncated sparse row header")
                (n_entries,) = struct.unpack_from("<Q", data, offset)
                offset += 8
                need = n_entries * pair.itemsize
                if end - offset < need:
                    raise SketchFormatError("truncated sparse row payload")
                arr = np.frombuffer(data, dtype=pair, count=n_entries, offset=offset)
                offset += need
                slots = arr["slot"]
                if n_entries and (
                    np.any(np.diff(slots.astype(np.int64)) <= 0)
                    or int(slots[-1]) >= hash_range
                ):
                    raise SketchFormatError("sparse slots not sorted or out of range")
                sketch._rows[l] = {
                    int(s): int(c) for s, c in zip(slots, arr["count"])
                }
            if offset != end:
                raise SketchFormatError("trailing bytes after sparse payload")
        return sketch

    @classmethod
    def deserialize(cls, source: Union[BinaryIO, bytes, str]) -> "RaceSketch":
        if isinstance(source, (bytes, bytearray)):
            data = bytes(source)
        elif hasattr(source, "read"):
            data = source.read()
        else:
            with open(source, "rb") as f:
                data = f.read()
        return cls.from_bytes(data)

    # ------------------------------------------------------------------ dunder

    def __eq__(self, other) -> bool:
        if not isinstance(other, RaceSketch):
            return NotImplemented
        if (
            self.config != other.config
            or self.rehash_family_id != other.rehash_family_id
            or self.items != other.items
        ):
            return False
        if self._counts is not None and other._counts is not None:
            return bool(np.array_equal(self._counts, other._counts))
        return all(a == b for a, b in zip(self._iter_rows(), other._iter_rows()))

    def __repr__(self) -> str:
        return (
            f"RaceSketch(kind={self.config.kind.value}, rows={self.config.rows}, "
            f"range={self.config.hash_range}, items={self.items}, "
            f"storage={self.storage})"
        )
