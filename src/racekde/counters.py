"""Counter stores of a RACE sketch: the dense grid and the sorted sparse keys.

A store holds the L x R counters of one sketch behind one small interface,
written once for both layouts: ``gather`` the counters at flat keys
``row * R + slot``, ``add`` or ``subtract`` counts at flat keys, list the
``counters``, and the ``merged`` sum with another store. Flat keys are
passed as a uint64 array, sorted and unique, or as a slice over a run of
flat keys with a count for each key in it, zeros included; ``counters()``
returns one of these two forms.

* ``DenseStore`` keeps every counter in one (rows, R) uint64 array.
* ``SparseStore`` keeps the nonzero counters as sorted unique uint64 flat
  keys with a parallel uint64 count array. Single-item updates are staged
  in a small sorted delta with signed counts, which gathers read too; the
  delta is folded into the sorted arrays once it outgrows about
  sqrt(nnz * rows) entries, so add and remove cost O(rows + sqrt(nnz * rows))
  amortized rather than O(nnz). Everything O(nnz) reads the folded view.

Adding raises OverflowError when a counter would exceed 64 bits, and
subtracting raises UnmatchedDeletionError when one would drop below 0;
either leaves the store unchanged. Each store also writes and reads its
row payloads of the sketch file (see ``racekde.sketch``) and checks that
every row of a loaded payload sums to the header's item count.
"""

from __future__ import annotations

import math
import struct
from typing import Optional

import numpy as np

_U64_MAX = 2**64 - 1
_LO32 = np.uint64(0xFFFFFFFF)
_NO_ENTRIES = np.zeros(0, dtype=np.uint64)
_ROW_HEADER = struct.Struct("<Q")


class UnmatchedDeletionError(ValueError):
    """Raised when a remove would drive a counter or the item count below 0."""


class SketchFormatError(ValueError):
    """Raised for corrupt or unsupported sketch files."""


def nonzero(keys, counts):
    """(keys, counts) as arrays of the nonzero counters only."""
    if isinstance(keys, slice):
        nz = np.flatnonzero(counts)
        return nz.astype(np.uint64) + np.uint64(keys.start), counts[nz]
    return keys, counts


def tally(local: np.ndarray, first: int, span: int):
    """Occurrences of the flat keys ``first + local``, local in [0, span):
    a bincount when the span is no wider than the keys, else unique keys."""
    if span <= local.size:
        # local < span <= local.size, so the uint64 keys read as int64
        counts = np.bincount(local.view(np.int64).ravel(), minlength=span)
        return slice(first, first + span), counts.astype(np.uint64)
    keys, counts = np.unique(local, return_counts=True)
    return keys + np.uint64(first), counts.astype(np.uint64)


def _top(counts: np.ndarray) -> int:
    return int(np.maximum.reduce(counts, axis=None)) if counts.size else 0


def _checked_sum(cur: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """cur + counts, raising OverflowError where a uint64 sum wraps."""
    out = cur + counts
    if np.count_nonzero(out < counts):
        raise OverflowError("counter exceeds 64 bits")
    return out


def _lookup(keys: np.ndarray, vals: np.ndarray, q: np.ndarray) -> np.ndarray:
    """vals at the positions of q in the sorted keys, 0 where q is absent."""
    if not keys.size:
        return np.zeros(q.shape, dtype=np.uint64)
    i = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return np.where(keys[i] == q, vals[i], np.uint64(0))


def _union(k1: np.ndarray, v1: np.ndarray, k2: np.ndarray, v2: np.ndarray):
    """Sorted union of sorted unique keys, counts summed modulo 2**64;
    keys whose sum is 0 are dropped."""
    if not k1.size or not k2.size:
        return (k2, v2) if k2.size else (k1, v1)
    pos = np.searchsorted(k1, k2)
    hit = k1[np.minimum(pos, k1.size - 1)] == k2
    new = ~hit
    keys = np.insert(k1, pos[new], k2[new])
    vals = np.insert(v1, pos[new], v2[new])
    at = (pos + np.cumsum(new))[hit]  # where the shared keys moved to
    vals[at] += v2[hit]
    zero = at[vals[at] == 0]
    if zero.size:
        keys, vals = np.delete(keys, zero), np.delete(vals, zero)
    return keys, vals


def _delta_limit(nnz: int, rows: int) -> int:
    """Staged entries the sparse delta may hold before it is folded."""
    return math.isqrt(nnz * rows)


def _sums_equal(row_sums, vals: np.ndarray, items: int, width: int) -> bool:
    """Whether every row of vals sums to items, exactly.

    Counters narrower than 8 bytes are below 2**32, so a row of fewer than
    2**32 of them cannot wrap a uint64 sum; 8-byte counters are summed as
    32-bit halves, since their bare sum could wrap back to ``items``.
    """
    if width < 8:
        return not np.count_nonzero(row_sums(vals) != items)
    lo = row_sums(vals & _LO32)
    hi = row_sums(vals >> np.uint64(32)) + (lo >> np.uint64(32))
    return not (
        np.count_nonzero((lo & _LO32) != items & 0xFFFFFFFF)
        or np.count_nonzero(hi != items >> 32)
    )


def _pair_dtype(width: int) -> np.dtype:
    return np.dtype([("slot", "<u8"), ("count", f"<u{width}")])


class DenseStore:
    """Every counter of the grid in one (rows, R) uint64 array, ``counts``.

    ``peak`` bounds every counter from above, so adds check each sum for a
    64-bit wrap only when one could occur; handing ``counts`` out drops the
    bound, since the caller may write into the array."""

    name, code = "dense", 0

    def __init__(self, rows: int, R: int, counts: Optional[np.ndarray] = None, peak: int = 0):
        self.rows, self.R = rows, R
        self._counts = np.zeros((rows, R), dtype=np.uint64) if counts is None else counts
        self.peak = peak

    @property
    def counts(self) -> np.ndarray:
        self.peak = _U64_MAX
        return self._counts

    def _at(self, keys):
        # Dense flat keys fit int64, by which numpy indexes without a cast.
        return self._counts.reshape(-1), keys if isinstance(keys, slice) else keys.view(np.int64)

    def gather(self, keys) -> np.ndarray:
        flat, idx = self._at(keys)
        return flat[idx]

    def add(self, keys, counts) -> None:
        flat, idx = self._at(keys)
        top = _top(counts)
        if self.peak + top > _U64_MAX:
            flat[idx] = _checked_sum(flat[idx], counts)
        else:
            flat[idx] += counts
        self.peak += top

    def subtract(self, keys, counts) -> None:
        flat, idx = self._at(keys)
        cur = flat[idx]
        if np.count_nonzero(cur < counts):
            raise UnmatchedDeletionError("counter underflow: vectors not present")
        flat[idx] = cur - counts

    def counters(self):
        return slice(0, self._counts.size), self._counts.reshape(-1)

    def merged(self, other) -> "DenseStore":
        theirs, peak = other.dense(), self.peak + other.peak
        total = _checked_sum(self._counts, theirs) if peak > _U64_MAX else self._counts + theirs
        return DenseStore(self.rows, self.R, total, peak)

    def dense(self) -> np.ndarray:
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def rows_sum_to(self, items: int, width: int) -> bool:
        return _sums_equal(lambda v: np.einsum("ij->i", v), self._counts, items, width)

    def payload(self, width: int) -> bytes:
        return self._counts.astype(f"<u{width}").tobytes()

    @classmethod
    def load(cls, data, offset: int, end: int, rows: int, R: int, width: int):
        # Check the size the header declares before allocating it.
        if end - offset != width * rows * R:
            raise SketchFormatError("truncated or oversized dense payload")
        counts = np.frombuffer(data, dtype=f"<u{width}", count=rows * R, offset=offset)
        return cls(rows, R, counts.reshape(rows, R).astype(np.uint64), (1 << 8 * width) - 1)


class SparseStore:
    """Nonzero counters as sorted unique flat keys ``keys`` with counts
    ``vals``, and a delta ``dkeys``/``dvals`` of staged updates with signed
    counts held modulo 2**64. Arrays are replaced, never written in place,
    so stores may share them, and reads fold the delta into a view without
    storing it, so they never change the store. ``peak`` bounds every
    counter from above, so ``add`` looks counters up only when one could
    pass 64 bits."""

    name, code = "sparse", 1

    def __init__(self, rows: int, R: int):
        self.rows, self.R = rows, R
        self.keys = self.vals = self.dkeys = self.dvals = _NO_ENTRIES
        self.peak = 0

    def gather(self, keys: np.ndarray) -> np.ndarray:
        out = _lookup(self.keys, self.vals, keys)
        if self.dkeys.size:
            out += _lookup(self.dkeys, self.dvals, keys)
        return out

    def add(self, keys, counts) -> None:
        keys, counts = nonzero(keys, counts)
        top = _top(counts)
        if self.peak + top > _U64_MAX:
            _checked_sum(self.gather(keys), counts)
        self._update(keys, counts)
        self.peak += top

    def subtract(self, keys, counts) -> None:
        keys, counts = nonzero(keys, counts)
        if np.count_nonzero(self.gather(keys) < counts):
            raise UnmatchedDeletionError("counter underflow: vectors not present")
        self._update(keys, -counts)

    def _update(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        dkeys, dvals = _union(self.dkeys, self.dvals, keys, deltas)
        if dkeys.size > _delta_limit(self.keys.size, self.rows):
            self.keys, self.vals = _union(self.keys, self.vals, dkeys, dvals)
            dkeys = dvals = _NO_ENTRIES
        self.dkeys, self.dvals = dkeys, dvals

    def counters(self):
        return _union(self.keys, self.vals, self.dkeys, self.dvals)

    def merged(self, other) -> "SparseStore":
        out = SparseStore(self.rows, self.R)
        out.keys, out.vals = self.counters()
        out.peak = self.peak
        out.add(*other.counters())
        return out

    def dense(self) -> np.ndarray:
        keys, vals = self.counters()
        out = np.zeros(self.rows * self.R, dtype=np.uint64)
        out[keys.view(np.int64)] = vals
        return out.reshape(self.rows, self.R)

    def _row_bases(self) -> np.ndarray:
        return np.arange(self.rows, dtype=np.uint64) * np.uint64(self.R)

    def _row_lengths(self, keys: np.ndarray) -> np.ndarray:
        return np.diff(np.searchsorted(keys, self._row_bases()), append=keys.size)

    def rows_sum_to(self, items: int, width: int) -> bool:
        keys, vals = self.counters()
        lengths = self._row_lengths(keys)
        if not lengths.all():  # a row without counters sums to 0
            return items == 0 and not vals.size
        starts = np.cumsum(lengths) - lengths
        return _sums_equal(lambda v: np.add.reduceat(v, starts), vals, items, width)

    def payload(self, width: int) -> bytes:
        keys, vals = self.counters()
        lengths = self._row_lengths(keys)
        entries = np.empty(keys.size, dtype=_pair_dtype(width))
        entries["slot"] = keys - np.repeat(self._row_bases(), lengths)
        entries["count"] = vals
        heads = memoryview(lengths.astype("<u8").tobytes())
        body = memoryview(entries.tobytes())
        ends = (np.cumsum(lengths) * entries.itemsize).tolist()
        parts = []
        for l, (start, stop) in enumerate(zip([0] + ends, ends)):
            parts += (heads[8 * l : 8 * l + 8], body[start:stop])
        return b"".join(parts)

    @classmethod
    def load(cls, data, offset: int, end: int, rows: int, R: int, width: int):
        if end - offset < 8 * rows:
            raise SketchFormatError("truncated sparse payload: too short for its row headers")
        size = _pair_dtype(width).itemsize
        lengths, parts, view = [], [], memoryview(data)
        for _ in range(rows):
            if end - offset < 8:
                raise SketchFormatError("truncated sparse row header")
            (n_entries,) = _ROW_HEADER.unpack_from(data, offset)
            offset += 8
            if end - offset < n_entries * size:
                raise SketchFormatError("truncated sparse row payload")
            parts.append(view[offset : offset + n_entries * size])
            lengths.append(n_entries)
            offset += n_entries * size
        if offset != end:
            raise SketchFormatError("trailing bytes after sparse payload")
        entries = np.frombuffer(b"".join(parts), dtype=_pair_dtype(width))
        store = cls(rows, R)
        slots = entries["slot"]
        keys = slots + np.repeat(store._row_bases(), lengths)
        # In-range slots and strictly increasing flat keys: every row's
        # slots are strictly increasing and below R.
        if np.count_nonzero(slots >= R) or np.count_nonzero(keys[1:] <= keys[:-1]):
            raise SketchFormatError("sparse slots not sorted or out of range")
        store.keys, store.vals = keys, entries["count"].astype(np.uint64)
        if not store.vals.all():
            raise SketchFormatError("sparse entry with a zero count")
        store.peak = (1 << 8 * width) - 1
        return store


STORES = {cls.name: cls for cls in (DenseStore, SparseStore)}
