"""Command-line tool: build, merge, query, and inspect sketches, and run
error-vs-memory evaluations that emit plot-ready CSVs.

Exit codes: 0 success, 1 usage error (a flag, or a combination of flags,
that is invalid), 2 data error: anything raised by the contents of a file or
by the file system (a ValueError, an ArithmeticError or an OSError).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from dataclasses import replace
from typing import List, Optional

from .baselines import ReservoirSample, exact_kde, sample_bytes
from .io import DatasetFormatError, EvalRecord, read_dense, read_sparse, write_eval_csv
from .kernels import KernelEval
from .lsh import Family, LshConfig, derive_seed
from .sketch import HEADER_SIZE, RaceSketch
from .vectors import DimensionMismatchError

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="racekde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["dense", "sparse"], default="dense")
        p.add_argument("--dim", type=int, help="dimension (sparse sketch/eval input needs it)")

    def add_family(p):
        p.add_argument("--kind", choices=["srp", "l2", "l1"], required=True)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--power", type=int, default=1)
        p.add_argument("--range", type=int, dest="hash_range")
        p.add_argument("--seed", type=int, default=0)

    p_sketch = sub.add_parser("sketch", help="build a sketch from a dataset in one pass")
    p_sketch.add_argument("--input", required=True)
    add_format(p_sketch)
    add_family(p_sketch)
    p_sketch.add_argument("--rows", type=int, required=True)
    p_sketch.add_argument("--output", required=True)

    p_query = sub.add_parser("query", help="estimate densities from a sketch file")
    p_query.add_argument("--sketch", required=True, dest="sketch_file")
    p_query.add_argument("--queries", required=True)
    add_format(p_query)
    p_query.add_argument("--groups", type=int, default=9)
    p_query.add_argument("--output", required=True)

    p_merge = sub.add_parser("merge", help="merge sketch files with identical configs")
    p_merge.add_argument("inputs", nargs="+")
    p_merge.add_argument("--output", required=True)

    p_info = sub.add_parser("info", help="print a sketch file's header and occupancy")
    p_info.add_argument("sketch_file")

    p_eval = sub.add_parser("eval", help="error-vs-memory evaluation against exact KDE")
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--queries", required=True)
    add_format(p_eval)
    add_family(p_eval)
    p_eval.add_argument("--groups", type=int, default=9)
    p_eval.add_argument("--methods", default="race,rs")
    p_eval.add_argument("--sizes", required=True, help="comma-separated byte budgets")
    p_eval.add_argument("--repeats", type=int, default=1)
    p_eval.add_argument("--output", required=True)
    return parser


def _default_range(kind: str, power: int, hash_range: Optional[int]) -> int:
    """--range, or srp's 2**power when it is missing; LshConfig judges it."""
    if hash_range is not None:
        return hash_range
    if kind == "srp":
        return 2**power
    raise _UsageError("--range is required for l2/l1")


class _UsageError(Exception):
    pass


def _from_flags(build, **fields):
    """build(**fields); a ValueError, an invalid combination of flags, is a
    usage error."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _config(args, dim: int, rows: int, seed: int) -> LshConfig:
    """The sketch config of the family flags; srp has no sigma."""
    return _from_flags(
        LshConfig,
        kind=Family(args.kind),
        dim=dim,
        sigma=args.sigma if args.kind != "srp" else 0.0,
        power=args.power,
        rows=rows,
        hash_range=_default_range(args.kind, args.power, args.hash_range),
        seed=seed,
    )


def _check_groups(groups: int, rows: Optional[int] = None) -> None:
    """--groups must be odd, and at most the sketch's rows when given."""
    if groups % 2 == 0 or groups < 1:
        raise _UsageError("--groups must be a positive odd integer")
    if rows is not None and groups > rows:
        raise _UsageError(f"--groups {groups} exceeds the sketch's {rows} rows")


def _reader(path: str, fmt: str, dim: Optional[int], want: Optional[int] = None):
    """The vectors of path, read at --dim, or at ``want`` when given: a
    --dim that differs from ``want`` is a data error."""
    if dim is not None and dim < 1:
        raise _UsageError("--dim must be positive")
    if want is not None:
        if dim not in (None, want):
            raise DimensionMismatchError(f"expected dimension {want}, got --dim {dim}")
        dim = want
    if fmt == "sparse" and dim is None:
        raise _UsageError("--dim is required for sparse input")
    return read_sparse(path, dim) if fmt == "sparse" else read_dense(path, dim)


def _records(method: str, params: str, size: int, estimates, exact=None) -> List[EvalRecord]:
    """One EvalRecord per estimate, numbered from 0; ``exact`` pairs each
    with its ground truth, or is None when there is none."""
    truths = itertools.repeat(None) if exact is None else exact
    return [
        EvalRecord(qid, method, params, size, truth, estimate)
        for qid, (truth, estimate) in enumerate(zip(truths, estimates))
    ]


def cmd_sketch(args) -> int:
    start = time.monotonic()
    stream = _reader(args.input, args.format, args.dim)
    sketch = None
    for x in stream:
        if sketch is None:
            sketch = RaceSketch(_config(args, x.dim, args.rows, args.seed))
        sketch.add(x)
    if sketch is None:
        raise DatasetFormatError(0, "input contains no vectors")
    size = sketch.serialize(args.output)
    elapsed = time.monotonic() - start
    print(f"items={sketch.items} bytes={size} seconds={elapsed:.3f}")
    return 0


def cmd_query(args) -> int:
    _check_groups(args.groups)
    sketch = RaceSketch.deserialize(args.sketch_file)
    _check_groups(args.groups, sketch.config.rows)
    size = sketch.memory_bytes()
    params = (
        f"kind={sketch.config.kind.value},rows={sketch.config.rows},"
        f"range={sketch.config.hash_range},power={sketch.config.power},"
        f"groups={args.groups}"
    )
    queries = _reader(args.queries, args.format, args.dim, sketch.config.dim)
    # A generator: each query is estimated as it is read.
    estimates = (sketch.estimate(q, args.groups).value for q in queries)
    records = _records("race", params, size, estimates)
    write_eval_csv(records, args.output)
    print(f"queries={len(records)} output={args.output}")
    return 0


def cmd_merge(args) -> int:
    merged = None
    for path in args.inputs:
        sketch = RaceSketch.deserialize(path)
        merged = sketch if merged is None else merged.merge(sketch)
    size = merged.serialize(args.output)
    print(f"items={merged.items} bytes={size} inputs={len(args.inputs)}")
    return 0


def cmd_info(args) -> int:
    sketch = RaceSketch.deserialize(args.sketch_file)
    cfg = sketch.config
    print(f"kind: {cfg.kind.value}")
    print(f"dim: {cfg.dim}")
    print(f"sigma: {cfg.sigma}")
    print(f"power: {cfg.power}")
    print(f"rows: {cfg.rows}")
    print(f"range: {cfg.hash_range}")
    print(f"seed: {cfg.seed}")
    print(f"items: {sketch.items}")
    print(f"storage: {sketch.storage}")
    print(f"rehash_family_id: {sketch.rehash_family_id}")
    print(f"nonzero_fraction: {sketch.nonzero_fraction():.6g}")
    print(f"bytes: {sketch.memory_bytes()}")
    return 0


def _distinct(flag: str, entries: list) -> list:
    """The entries of a list flag, refusing one given twice, which would run
    and write its rows twice."""
    for i, entry in enumerate(entries):
        if entry in entries[:i]:
            raise _UsageError(f"{flag} repeats {entry!r}")
    return entries


def cmd_eval(args) -> int:
    _check_groups(args.groups)
    methods = _distinct("--methods", [m.strip() for m in args.methods.split(",") if m.strip()])
    if not methods:
        raise _UsageError("--methods names no method")
    for m in methods:
        if m not in ("race", "rs"):
            raise _UsageError(f"unknown method {m!r}")
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise _UsageError("--sizes must be comma-separated integers") from None
    _distinct("--sizes", sizes)
    if min(sizes) < 1:
        raise _UsageError("--sizes must be positive")
    if args.repeats < 1:
        raise _UsageError("--repeats must be >= 1")

    dataset = list(_reader(args.input, args.format, args.dim))
    if not dataset:
        raise DatasetFormatError(0, "input contains no vectors")
    dim = dataset[0].dim
    # Every budget's config is checked before any exact density is computed.
    base = _config(args, dim, 1, 0)  # each run derives its own seed
    race_configs = {}
    if "race" in methods:
        for budget in sizes:
            rows = (budget - HEADER_SIZE - 4) // (8 * base.hash_range)
            if rows < 1:
                raise _UsageError(f"budget {budget} too small for range {base.hash_range}")
            _check_groups(args.groups, rows)
            race_configs[budget] = replace(base, rows=rows)
    queries = list(_reader(args.queries, args.format, args.dim, dim))
    kernel = _from_flags(
        KernelEval,
        kind=Family(args.kind),
        sigma=args.sigma if args.kind != "srp" else None,
        power=args.power,
    )
    exact = [exact_kde(dataset, q, kernel) for q in queries]

    records = []
    for budget in sizes:
        for rep in range(args.repeats):
            for method in methods:
                seed = derive_seed(args.seed, method, rep * 10_000_000 + budget)
                if method == "race":
                    sketch = RaceSketch(replace(race_configs[budget], seed=seed))
                    for x in dataset:
                        sketch.add(x)
                    size = sketch.memory_bytes()
                    rows = sketch.config.rows
                    params = f"budget={budget},rows={rows},range={base.hash_range},rep={rep}"
                    estimates = [sketch.estimate(q, args.groups).value for q in queries]
                else:
                    per_sample = sample_bytes(dataset[:1])
                    m = max(1, budget // per_sample)
                    rs = ReservoirSample(m, seed)
                    rs.extend(dataset)
                    size = rs.memory_bytes()
                    params = f"budget={budget},samples={m},rep={rep}"
                    estimates = [rs.estimate(q, kernel) for q in queries]
                records += _records(method, params, size, estimates, exact)
    write_eval_csv(records, args.output)
    print(f"rows={len(records)} output={args.output}")
    return 0


_COMMANDS = {
    "sketch": cmd_sketch,
    "query": cmd_query,
    "merge": cmd_merge,
    "info": cmd_info,
    "eval": cmd_eval,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"racekde: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"racekde: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
