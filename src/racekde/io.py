"""Dataset readers and evaluation CSV output.

Two text formats are supported:

* dense  -- one vector per line, whitespace-separated decimal reals.
  Blank lines and lines starting with '#' are skipped.
* sparse -- per line, an optional leading label token (discarded) followed
  by index:value pairs. Indices are 1-BASED in the file and mapped to
  0-based in memory; an index of 0 is a format error. Indices strictly
  increase along a line, counting pairs whose value is 0 (which are then
  dropped).

Readers stream: they yield one vector at a time and never buffer the file.
Every value must be finite: ``nan`` or ``inf`` is a format error.

This module owns opening files: every racekde reader and writer takes its
source or sink through ``opened``, which opens a path and passes anything
else through, and no other racekde module calls ``open``.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Union

import numpy as np

from .vectors import DataVector, NonFiniteInputError

__all__ = ["DatasetFormatError", "EvalRecord", "opened", "read_dense", "read_sparse",
           "write_eval_csv"]

PathOrFile = Union[str, os.PathLike, IO]
Source = Union[PathOrFile, Iterable[str]]


class DatasetFormatError(ValueError):
    """Raised for malformed dataset lines; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@contextmanager
def opened(target: Source, mode: str = "r"):
    """Yield a ``str`` or ``os.PathLike`` target opened in ``mode``, closed on
    exit; yield anything else (an open file, an iterable of lines) as it is,
    left open. Text modes use ``newline=""``: writes keep their line ends,
    and reads split lines at \\n, \\r and \\r\\n."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, newline=None if "b" in mode else "") as f:
            yield f
    else:
        yield target


def _data_lines(source: Source) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped text) of every line of source that is
    neither blank nor a '#' comment."""
    with opened(source) as lines:
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                yield lineno, stripped


def _vector(lineno: int, make, *args) -> DataVector:
    try:
        return make(*args)
    except NonFiniteInputError as exc:
        raise DatasetFormatError(lineno, str(exc)) from None


def read_dense(source: Source, dim: Optional[int] = None) -> Iterator[DataVector]:
    """Yield dense vectors from a dense text source.

    The dimension is taken from the first data line unless given; every
    later line must match it.
    """
    for lineno, stripped in _data_lines(source):
        try:
            values = np.array([float(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise DatasetFormatError(lineno, f"malformed number: {exc}") from None
        if dim is None:
            dim = values.size
        elif values.size != dim:
            raise DatasetFormatError(
                lineno, f"expected {dim} entries, found {values.size}"
            )
        yield _vector(lineno, DataVector.dense, values)


def read_sparse(source: Source, dim: int) -> Iterator[DataVector]:
    """Yield sparse vectors of the declared dimension from index:value lines."""
    if dim <= 0:
        raise ValueError("declared dimension must be positive")
    for lineno, stripped in _data_lines(source):
        tokens = stripped.split()
        if tokens and ":" not in tokens[0]:
            tokens = tokens[1:]  # leading label, discarded
        indices = []
        values = []
        prev = 0
        for tok in tokens:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise DatasetFormatError(lineno, f"malformed token {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DatasetFormatError(lineno, f"malformed token {tok!r}") from None
            if idx < 1:
                raise DatasetFormatError(
                    lineno, f"index {idx} out of range (file indices are 1-based)"
                )
            if idx > dim:
                raise DatasetFormatError(
                    lineno, f"index {idx} exceeds declared dimension {dim}"
                )
            if idx <= prev:
                raise DatasetFormatError(lineno, "indices must be strictly increasing")
            prev = idx
            if val != 0.0:
                indices.append(idx - 1)
                values.append(val)
        yield _vector(lineno, DataVector.sparse, dim, indices, values)


@dataclass(frozen=True)
class EvalRecord:
    """One evaluation row: a query's exact density, an estimate, and the
    byte cost of the structure that produced it.

    ``exact`` may be None when no ground truth is available (the query
    command); then, as when exact == 0, the relative error is left blank.
    """

    query_id: int
    method: str
    params: str
    bytes: int
    exact: Optional[float]
    estimate: float

    @property
    def rel_error(self) -> Optional[float]:
        if self.exact is None or self.exact == 0.0:
            return None
        return (self.estimate - self.exact) / self.exact


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.17g}"


def write_eval_csv(records: Iterable[EvalRecord], sink: PathOrFile) -> None:
    """Write records as CSV, sorted by (query_id, method, params).

    Floats are rendered with 17 significant digits so parsing them back
    recovers the exact doubles.
    """
    rows = sorted(records, key=lambda r: (r.query_id, r.method, r.params))
    with opened(sink, "w") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["query_id", "method", "params", "bytes", "exact", "estimate", "rel_error"]
        )
        for r in rows:
            floats = (r.exact, r.estimate, r.rel_error)
            writer.writerow([r.query_id, r.method, r.params, r.bytes, *map(_fmt, floats)])
