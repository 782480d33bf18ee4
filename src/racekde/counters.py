"""Counter stores of a RACE sketch: the dense grid and the sorted sparse keys.

This module owns the counter layout and counts the writes. Counter
(row, slot) of an L x R grid has the flat key ``row * R + slot``, a uint64:
:func:`flat_keys` turns a chunk of hashed slots into flat keys, a store
counts them as it gets them, and each store decodes them again into its
file payload.

A store holds the L x R counters of one sketch behind one small interface,
written once for both layouts: ``gather`` the counters at flat keys,
``add`` or ``subtract`` counts at flat keys, list the ``counters``, the
``merged`` sum with another store, and the ``payload`` of the sketch file.
A write takes a uint64 array of flat keys of any shape and order, a key
repeated once for each point that hit it, with one count for every key or
an array of counts of the keys' shape. ``counters()`` returns a sorted unique
uint64 array of keys, or a slice over a run of flat keys, with a count for
each key, zeros included in a slice. ``payload()`` picks the narrowest
counter width of 1, 2, 4 or 8 bytes that fits the largest counter and
returns it with the bytes, so the counters are read once.

* ``DenseStore`` keeps every counter in one (rows, R) uint64 array and
  counts a write with ``np.add.at`` or ``np.subtract.at``.
* ``SparseStore`` keeps the nonzero counters as sorted unique uint64 flat
  keys with a parallel uint64 count array, the base. A write appends its
  (keys, signed counts) arrays to a log as they come, repeats included,
  O(rows) for one item. The log is folded in one sorted pass when a read
  needs it (``gather``, ``counters``, and the underflow check of a
  ``subtract`` that cannot read in place, below) or when it holds more
  than max(2**16, nnz) entries: the entries are sorted, summed by key and
  merged into a sorted delta, which is merged into the base once it
  outgrows about sqrt(nnz * rows) entries. A stream of writes thus costs
  O(rows log n) amortized per item, n the log bound, whatever the number
  of nonzero counters nnz, and the first read after writes pays their
  fold. The log holds at most the bound plus one write, 16 bytes an
  entry: 1 MiB at the 2**16 floor, but the bound grows with nnz, so the
  log of a large build can reach the size of the base, and a fold
  briefly needs a few arrays of that size more. A read folds under the
  store's lock, so reads from several threads at once are safe. A merge
  does not go through the log: it joins the two stores' sorted counters
  in one sorted union.

  A ``subtract`` of one point, a count of 1 at (1, rows) keys with row
  r's key at position r (one item's keys from ``flat_keys``), checks for
  underflow without a fold while every logged write is such a point and
  the log holds at most 2**16 entries (``_point_limit``): it reads the
  base and delta counts, plus one row-aligned compare of its keys with
  the logged points' keys, each point signed +1 or -1, and then logs
  itself. An index of the log holds those keys, at most 2**16 of them
  (0.5 MiB), and every fold clears it; the log stays what a fold reads.
  So a stream of single adds and removes folds once every 2**16 logged
  entries or so, not once a remove.

Callers keep every counter, and the counts one write gives one key, below
2**64, so adding sums without a 64-bit check; ``RaceSketch`` does so
through its item count, which every row sums to and which it keeps below
2**64. Subtracting raises UnmatchedDeletionError when a counter would drop
below 0, and leaves the store unchanged. Each store also writes and reads
its row payloads of the sketch file (see ``racekde.sketch``) and checks
that every row of a loaded payload sums to the header's item count.
"""

from __future__ import annotations

import math
import struct
import threading
from typing import Optional

import numpy as np

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


def _row_bases(row_start: int, rows: int, R: int) -> np.ndarray:
    """The flat key of slot 0 of each of the rows from row_start on."""
    return np.arange(row_start, row_start + rows, dtype=np.uint64) * np.uint64(R)


def flat_keys(slots: np.ndarray, row_start: int, R: int) -> np.ndarray:
    """Flat keys row * R + slot, in place, of fresh uint64 slots whose last
    axis holds one slot for each row from row_start on."""
    slots += _row_bases(row_start, slots.shape[-1], R)
    return slots


def _width(vals: np.ndarray) -> int:
    """The narrowest counter width of 1, 2, 4 or 8 bytes that fits vals."""
    top = int(vals.max(initial=0))
    return next(w for w in (1, 2, 4, 8) if top < 1 << (8 * w))


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


def _summed(keys: np.ndarray, vals: np.ndarray):
    """The distinct keys, sorted, with their counts summed modulo 2**64;
    keys whose sum is 0 are dropped."""
    if np.count_nonzero(vals != vals[:1]):
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
    else:  # every count alike, as in a log of adds only: sorting the keys will do
        keys = np.sort(keys)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    keys, vals = keys[starts], np.add.reduceat(vals, starts)
    kept = vals != 0
    return (keys, vals) if kept.all() else (keys[kept], vals[kept])


def _uint64(counts) -> np.ndarray:
    """counts as uint64: a Python int takes the ufuncs' ``.at`` off their
    fast path, about 30 times slower under numpy 2.4."""
    return np.asarray(counts, dtype=np.uint64)


def _per_key(keys: np.ndarray, counts):
    """keys, and their counts as uint64, as two flat arrays of one size."""
    return keys.reshape(-1), np.full(keys.shape, counts, dtype=np.uint64).reshape(-1)


def _log_limit(nnz: int) -> int:
    """Logged entries the sparse store may hold before it folds them.

    At least nnz, so the O(nnz) merge of the delta into the base that a
    fold may end with is spread over as many logged entries, which lets the
    log grow as large as the base; and at least 2**16 (1 MiB of log), the
    cheapest power of 2 from 2**12 to 2**20 for a whole l1 build of 1000
    single adds at L=500, R=1e5 and its payload."""
    return max(2**16, nnz)


def _point_limit() -> int:
    """Logged entries that a single-point remove reads in place at most.
    Unbounded, the compare grows with the log, whose bound grows with nnz:
    at 7.3e5 nonzeros (l2, L=500, R=1e5) the median remove took 556-617
    us, against 249-254 us at 2**16, on a 2 vCPU Xeon under numpy 2.4."""
    return 2**16


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
    The caller keeps every counter below 2**64 (see the module docstring)."""

    name, code = "dense", 0

    def __init__(self, rows: int, R: int, counts: Optional[np.ndarray] = None):
        self.rows, self.R = rows, R
        self.counts = np.zeros((rows, R), dtype=np.uint64) if counts is None else counts

    def gather(self, keys: np.ndarray) -> np.ndarray:
        # Dense flat keys fit int64, by which numpy indexes without a cast.
        return self.counts.reshape(-1)[keys.view(np.int64)]

    def add(self, keys: np.ndarray, counts) -> None:
        np.add.at(self.counts.reshape(-1), keys.view(np.int64), _uint64(counts))

    def subtract(self, keys: np.ndarray, counts) -> None:
        flat, idx = self.counts.reshape(-1), keys.view(np.int64)
        before = flat[idx]
        np.subtract.at(flat, idx, _uint64(counts))
        # A counter that grew wrapped below 0; a repeated key gathered the
        # same value each time, so writing back restores every counter.
        if np.count_nonzero(flat[idx] > before):
            flat[idx] = before
            raise UnmatchedDeletionError("counter underflow: vectors not present")

    def counters(self):
        return slice(0, self.counts.size), self.counts.reshape(-1)

    def merged(self, other) -> "DenseStore":
        return DenseStore(self.rows, self.R, self.counts + other.dense())

    def dense(self) -> np.ndarray:
        view = self.counts.view()
        view.flags.writeable = False
        return view

    def rows_sum_to(self, items: int, width: int) -> bool:
        return _sums_equal(lambda v: np.einsum("ij->i", v), self.counts, items, width)

    def payload(self):
        width = _width(self.counts)
        return width, self.counts.astype(f"<u{width}").tobytes()

    @classmethod
    def load(cls, data, offset: int, end: int, rows: int, R: int, width: int):
        # Check the size the header declares before allocating it.
        if end - offset != width * rows * R:
            raise SketchFormatError("truncated or oversized dense payload")
        counts = np.frombuffer(data, dtype=f"<u{width}", count=rows * R, offset=offset)
        return cls(rows, R, counts.reshape(rows, R).astype(np.uint64))


class SparseStore:
    """Nonzero counters as sorted unique flat keys ``keys`` with counts
    ``vals``, a delta ``dkeys``/``dvals`` of folded updates with signed
    counts held modulo 2**64, and a log of the writes not yet folded (see
    the module docstring). Arrays are replaced, never written in place, so
    stores may share them; the index of logged points, which a ``subtract``
    of one point reads in place of a fold, is the store's own and every
    fold drops it. Every method holds the store's lock, which is
    re-entrant, so ``subtract`` checks its counters through ``gather``
    when it cannot read in place. The caller keeps every counter below
    2**64."""

    name, code = "sparse", 1

    def __init__(self, rows: int, R: int):
        self.rows, self.R = rows, R
        self.keys = self.vals = self.dkeys = self.dvals = _NO_ENTRIES
        self._log: list = []  # (keys, signed counts) of each write, in order
        self._logged = 0  # entries in the log
        # An index of the log while it holds single points only: the
        # (points, rows) keys and the signed count of each, in buffers of
        # _point_limit() keys, and how many points they hold.
        self._points = self._signs = None
        self._npoints = 0
        self._bases = None  # the flat key of each row's slot 0
        self._lock = threading.RLock()

    def gather(self, keys: np.ndarray) -> np.ndarray:
        with self._lock:
            self._fold()
            return self._folded_at(keys)

    def _folded_at(self, keys: np.ndarray) -> np.ndarray:
        """The base and delta counts at keys, the log left out."""
        out = _lookup(self.keys, self.vals, keys)
        if self.dkeys.size:
            out += _lookup(self.dkeys, self.dvals, keys)
        return out

    def _is_point(self, keys: np.ndarray, counts) -> bool:
        """Whether a write is one point: a count of 1 at (1, rows) keys that
        hold row r's key at position r, as ``flat_keys`` gives them."""
        if keys.shape != (1, self.rows) or not (isinstance(counts, int) and counts == 1):
            return False
        if self._bases is None:  # made at the first such write: rows may be many
            self._bases = _row_bases(0, self.rows, self.R)
        return not np.count_nonzero(keys[0] - self._bases >= np.uint64(self.R))

    def _points_only(self) -> bool:
        """Whether the index holds every logged entry."""
        return self._logged == self._npoints * self.rows

    def _at_point(self, keys: np.ndarray) -> np.ndarray:
        """The counters at one point's keys, read without a fold: the base
        and delta counts plus the signed counts of the logged points that
        hold each key in the same row. Those sum as float32 through BLAS,
        exactly: every partial sum is an integer of at most 2**16 in size."""
        out = self._folded_at(keys)
        m = self._npoints
        if m:
            hits = (self._points[:m] == keys).astype(np.float32)
            out += (self._signs[:m] @ hits).astype(np.int64).view(np.uint64)
        return out

    def add(self, keys: np.ndarray, counts) -> None:
        with self._lock:
            self._write(*_per_key(keys, counts), int(self._is_point(keys, counts)))

    def subtract(self, keys: np.ndarray, counts) -> None:
        point = self._is_point(keys, counts)
        keys, counts = _per_key(keys, counts)
        with self._lock:
            if point and self._points_only():
                held = self._at_point(keys)
            else:
                # One point's keys rise row by row; a chunk's may repeat.
                if np.count_nonzero(keys[1:] <= keys[:-1]):
                    keys, counts = _summed(keys, counts)
                held = self.gather(keys)
            if np.count_nonzero(held < counts):
                raise UnmatchedDeletionError("counter underflow: vectors not present")
            self._write(keys, -counts, -int(point))

    def _write(self, keys: np.ndarray, deltas: np.ndarray, sign: int) -> None:
        """Log a write; sign is 1 or -1 for one point added or subtracted,
        which the index takes while it holds every logged entry, else 0."""
        if sign and self._points_only():
            if not self._npoints:
                self._points = np.empty((_point_limit() // self.rows, self.rows), dtype=np.uint64)
                self._signs = np.empty(len(self._points), dtype=np.float32)
            if self._npoints < len(self._points):
                self._points[self._npoints] = keys
                self._signs[self._npoints] = sign
                self._npoints += 1
        self._log.append((keys, deltas))
        self._logged += keys.size
        if self._logged > _log_limit(self.keys.size):
            self._fold()

    def _fold(self) -> None:
        """Fold the log into the delta in one sorted pass, and the delta into
        the base once it outgrows ``_delta_limit``."""
        if not self._log:
            return
        keys, deltas = _summed(*map(np.concatenate, zip(*self._log)))
        self._log, self._logged = [], 0
        self._points = self._signs = None
        self._npoints = 0
        dkeys, dvals = _union(self.dkeys, self.dvals, keys, deltas)
        if dkeys.size > _delta_limit(self.keys.size, self.rows):
            self.keys, self.vals = _union(self.keys, self.vals, dkeys, dvals)
            dkeys = dvals = _NO_ENTRIES
        self.dkeys, self.dvals = dkeys, dvals

    def counters(self):
        with self._lock:
            self._fold()
            return _union(self.keys, self.vals, self.dkeys, self.dvals)

    def __getstate__(self):
        with self._lock:
            self._fold()
            return {k: v for k, v in vars(self).items() if k != "_lock"}

    def __setstate__(self, state):
        vars(self).update(state, _lock=threading.RLock())

    def merged(self, other) -> "SparseStore":
        out = SparseStore(self.rows, self.R)
        out.keys, out.vals = _union(*self.counters(), *nonzero(*other.counters()))
        return out

    def dense(self) -> np.ndarray:
        keys, vals = self.counters()
        out = np.zeros(self.rows * self.R, dtype=np.uint64)
        out[keys.view(np.int64)] = vals
        return out.reshape(self.rows, self.R)

    def _row_lengths(self, keys: np.ndarray) -> np.ndarray:
        return np.diff(np.searchsorted(keys, _row_bases(0, self.rows, self.R)), append=keys.size)

    def rows_sum_to(self, items: int, width: int) -> bool:
        keys, vals = self.counters()
        lengths = self._row_lengths(keys)
        if not lengths.all():  # a row without counters sums to 0
            return items == 0 and not vals.size
        starts = np.cumsum(lengths) - lengths
        return _sums_equal(lambda v: np.add.reduceat(v, starts), vals, items, width)

    def payload(self):
        keys, vals = self.counters()
        width, lengths = _width(vals), self._row_lengths(keys)
        entries = np.empty(keys.size, dtype=_pair_dtype(width))
        entries["slot"] = keys - np.repeat(_row_bases(0, self.rows, self.R), lengths)
        entries["count"] = vals
        heads = memoryview(lengths.astype("<u8").tobytes())
        body = memoryview(entries.tobytes())
        ends = (np.cumsum(lengths) * entries.itemsize).tolist()
        parts = []
        for l, (start, stop) in enumerate(zip([0] + ends, ends)):
            parts += (heads[8 * l : 8 * l + 8], body[start:stop])
        return width, b"".join(parts)

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
        keys = slots + np.repeat(_row_bases(0, rows, R), lengths)
        # In-range slots and strictly increasing flat keys: every row's
        # slots are strictly increasing and below R.
        if np.count_nonzero(slots >= R) or np.count_nonzero(keys[1:] <= keys[:-1]):
            raise SketchFormatError("sparse slots not sorted or out of range")
        store.keys, store.vals = keys, entries["count"].astype(np.uint64)
        if not store.vals.all():
            raise SketchFormatError("sparse entry with a zero count")
        return store


STORES = {cls.name: cls for cls in (DenseStore, SparseStore)}
