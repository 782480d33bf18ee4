"""Timed phases, correctness checks and the traced fixed schedule.

All load comes from one closed-loop caller: this process makes one call
at a time, and CLI children run one at a time with the parent waiting.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as _io
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from workloads import Workload, generate, write_points

# Share of --seconds each measured phase repeats for, after its minimum
# reps, split evenly over ROUNDS round-robin rounds.
SHARES = {
    "setup": 0.09, "ingest": 0.03, "update": 0.03, "query": 0.10,
    "batch": 0.05, "merge": 0.04, "cli": 0.66,
}
ROUNDS = 40
SETUP_REPS = 7  # fresh-interpreter set-ups per run, at least
CLI_REPS = 6  # rounds of the four CLI commands per run, at least
UPDATE_PAIRS = 1  # add/remove pairs per timed update sample
CHILD_TIMEOUT_S = 120

SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import racekde
from racekde import DataVector, LshConfig, RaceSketch
spec = json.loads(sys.argv[1])
x = (DataVector.sparse(spec["dim"], spec["idx"], spec["vals"]) if spec["idx"] is not None
     else DataVector.dense(spec["vals"]))
sketch = RaceSketch(LshConfig(**spec["cfg"]))
sketch.add(x)
value = sketch.estimate(x).value
elapsed = time.perf_counter() - t0
print(json.dumps({"elapsed": elapsed, "value": value, "module": racekde.__file__}))
"""


def _rank(p: float, n: int) -> int:
    """Nearest rank ceil(p% * n), immune to 99.9 / 100 * n rounding up."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def highest_percentile(n: int, candidates: Sequence[float] = (50, 90, 99, 99.9, 99.99)) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it."""
    ok = [p for p in candidates if n - _rank(p, n) >= 10]
    return max(ok) if ok else None


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p% * n)-th smallest sample."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


@dataclass
class Phase:
    """A measured operation: step() makes one sample; finish() runs once at the end."""

    min_reps: int
    step: Callable[[], float]
    finish: Callable[[], None] = lambda: None
    samples: List[float] = field(default_factory=list)


def interleave(phases: Dict[str, Phase], seconds: Dict[str, float], rounds: int,
               min_reps_cap: Optional[int] = None) -> None:
    """Run the phases round-robin; by the end of round r each phase has had
    r/rounds of its minimum reps and of its seconds.

    Spreading each phase's samples over the whole run keeps a burst of
    load from the rest of the machine from landing on one metric only.
    """
    spent = dict.fromkeys(phases, 0.0)
    for r in range(1, rounds + 1):
        for name, ph in phases.items():
            floor = math.ceil(min(ph.min_reps, min_reps_cap or ph.min_reps) * r / rounds)
            budget = seconds[name] * r / rounds
            while len(ph.samples) < floor or spent[name] < budget:
                t0 = time.perf_counter()
                ph.samples.append(ph.step())
                spent[name] += time.perf_counter() - t0
    for ph in phases.values():
        ph.finish()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Tally:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {name}")
        return ok

    def fail(self, name: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{name}: {exc!r}")


class Bench:
    """One workload's generated inputs, reference sketches, phases and checks."""

    def __init__(self, w: Workload, seed: int, root: Path, workdir: Path, spawner):
        from racekde import DataVector, KernelEval, LshConfig, RaceSketch

        self.w, self.seed, self.root, self.workdir, self.spawner = w, seed, root, workdir, spawner
        self.RaceSketch, self.DataVector = RaceSketch, DataVector
        self.tally = Tally()
        self.digests: Dict[str, str] = {}
        self.cfg = LshConfig(
            kind=w.kind, dim=w.dim, sigma=w.sketch_sigma, power=w.power,
            rows=w.rows, hash_range=w.hash_range, seed=seed,
        )
        self.kernel = KernelEval(
            kind=w.kind, sigma=None if w.kind == "srp" else w.sigma, power=w.power
        )
        inp = generate(w, seed)
        self.X, self.Q = inp.X, inp.Q
        self.points = self._vectors(inp.X, inp.X_idx)
        self.queries = self._vectors(inp.Q, inp.Q_idx)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )

        # CLI inputs: the first n_cli points and n_cli_queries queries, and
        # shard sketches of the same points for `racekde merge`.
        self.f_data = workdir / "data.txt"
        self.f_queries = workdir / "queries.txt"
        cli_idx = None if inp.X_idx is None else inp.X_idx[: w.n_cli]
        q_idx = None if inp.Q_idx is None else inp.Q_idx[: w.n_cli_queries]
        write_points(self.f_data, self.X[: w.n_cli], cli_idx)
        write_points(self.f_queries, self.Q[: w.n_cli_queries], q_idx)
        self.f_shards = []
        for k, part in enumerate(np.array_split(np.arange(w.n_cli), w.shards)):
            path = workdir / f"shard{k}.sketch"
            self.build_matrix(part).serialize(str(path))
            self.f_shards.append(path)
        self.joint = self.build_matrix(np.arange(w.n_points))
        self.shards = [self.build_matrix(p) for p in np.array_split(np.arange(w.n_points), w.shards)]
        self.digests["joint_sketch"] = hashlib.sha256(self.joint.to_bytes()).hexdigest()

    def _vectors(self, M, supports):
        if supports is None:
            return [self.DataVector.dense(row) for row in M]
        return [self.DataVector.sparse(self.w.dim, idx, M[i, idx]) for i, idx in enumerate(supports)]

    # --------------------------------------------------------------- builds

    def build_matrix(self, idx):
        s = self.RaceSketch(self.cfg)
        s.add_matrix(self.X[idx])
        return s

    def build_loop(self, idx):
        s = self.RaceSketch(self.cfg)
        for i in idx:
            s.add(self.points[i])
        return s

    # --------------------------------------------------------------- checks

    def check_library(self) -> None:
        """Checks that need no CLI output."""
        from racekde import hash_all, hash_matrix

        t = self.tally
        merged = self.shards[0]
        for s in self.shards[1:]:
            merged = merged.merge(s)
        joint_bytes = self.joint.to_bytes()
        t.check("merge of shards equals joint build", merged.to_bytes() == joint_bytes)
        back = self.RaceSketch.from_bytes(joint_bytes)
        t.check("from_bytes(to_bytes(s)) == s", back == self.joint and back.to_bytes() == joint_bytes)
        # hash_all of a dense vector is hash_matrix of it as one row.
        dense = hash_matrix(self.cfg, self.X[:20])
        same = True
        for i, row in enumerate(self.X[:20]):
            nz = np.flatnonzero(row)
            sparse = self.DataVector.sparse(self.w.dim, nz, row[nz])
            same &= bool(np.array_equal(hash_all(self.cfg, sparse), dense[i]))
        t.check("hash_all sparse == hash_all dense", same)

    def check_cli_outputs(self, sketch_file: Path, csv_file: Path, merged_file: Path, eval_file: Path) -> None:
        t = self.tally
        idx = np.arange(self.w.n_cli)
        by_matrix = self.build_matrix(idx)
        matrix_bytes = by_matrix.to_bytes()
        t.check("add_matrix bytes == add loop bytes", self.build_loop(idx).to_bytes() == matrix_bytes)
        t.check("add_matrix bytes == racekde sketch file", sketch_file.read_bytes() == matrix_bytes)
        t.check("racekde merge of shards == racekde sketch", merged_file.read_bytes() == matrix_bytes)
        with open(csv_file) as f:
            got = [float(r["estimate"]) for r in csv.DictReader(f)]
        want = [by_matrix.estimate(q).value for q in self.queries[: self.w.n_cli_queries]]
        t.check("racekde query CSV == library estimate", got == want)
        for key, path in (("cli_sketch", sketch_file), ("cli_query_csv", csv_file),
                          ("cli_merge", merged_file), ("cli_eval_csv", eval_file)):
            self.digests[key] = sha256(path)

    def quality(self) -> float:
        """Median relative error of the joint sketch on the first 20 queries."""
        from racekde import exact_kde

        errs = []
        for q in self.queries[:20]:
            exact = exact_kde(self.X, q, self.kernel)
            errs.append(abs(self.joint.estimate(q).value - exact) / exact)
        return float(statistics.median(errs))

    # ------------------------------------------------------------------ CLI

    def cli_args(self, out: Path) -> Dict[str, List[str]]:
        w = self.w
        fmt = ["--format", "sparse", "--dim", str(w.dim)] if w.sparse else []
        family = ["--kind", w.kind, "--sigma", repr(w.sigma), "--power", str(w.power),
                  "--range", str(w.hash_range), "--seed", str(self.seed)]
        return {
            "sketch": ["sketch", "--input", str(self.f_data), *fmt, *family,
                       "--rows", str(w.rows), "--output", str(out / "cli.sketch")],
            "query": ["query", "--sketch", str(out / "cli.sketch"), "--queries",
                      str(self.f_queries), *fmt, "--output", str(out / "est.csv")],
            "merge": ["merge", *map(str, self.f_shards), "--output", str(out / "merged.sketch")],
            "eval": ["eval", "--input", str(self.f_data), "--queries", str(self.f_queries),
                     *fmt, *family, "--methods", "race,rs", "--sizes", str(w.eval_budget),
                     "--output", str(out / "eval.csv")],
        }

    def child(self, argv: List[str]):
        """Run one child to completion; returns (wall s, exit code, maxrss MB, stdout)."""
        out_path = self.workdir / "child.out"
        err_path = self.workdir / "child.err"
        rec = self.spawner.run(argv, self.env, str(self.root), str(out_path), str(err_path),
                               CHILD_TIMEOUT_S)
        if rec["rc"] != 0:
            sys.stderr.write(err_path.read_text()[-2000:])
        return rec["wall"], rec["rc"], rec["maxrss_kb"] / 1024.0, out_path.read_text()

    # --------------------------------------------------------- timed phases

    def phase_setup(self) -> Phase:
        x = self.points[0]
        spec = json.dumps({
            "cfg": {"kind": self.w.kind, "dim": self.w.dim, "sigma": self.w.sketch_sigma,
                    "power": self.w.power, "rows": self.w.rows, "hash_range": self.w.hash_range,
                    "seed": self.seed},
            "dim": self.w.dim,
            "idx": None if x.indices is None else x.indices.tolist(),
            "vals": x.values.tolist(),
        })
        one = self.RaceSketch(self.cfg)
        one.add(x)
        want = one.estimate(x).value
        expected_module = str(self.root / "src" / "racekde" / "__init__.py")

        def step():
            _, rc, _, out = self.child([sys.executable, "-c", SETUP_CHILD, spec])
            rec = json.loads(out) if rc == 0 else {}
            self.tally.check("setup child", rc == 0 and rec["value"] == want
                             and os.path.samefile(rec["module"], expected_module))
            return rec.get("elapsed", math.nan)

        return Phase(SETUP_REPS, step)

    def insert(self, s, i0: int, i1: int) -> float:
        """Insert points [i0, i1) by the fastest public path for the input
        type (add_matrix for dense, an add loop for sparse); returns seconds."""
        if self.w.sparse:
            pts = self.points[i0:i1]
            t0 = time.perf_counter()
            for x in pts:
                s.add(x)
        else:
            block = self.X[i0:i1]
            t0 = time.perf_counter()
            s.add_matrix(block)
        return time.perf_counter() - t0

    def phase_ingest(self) -> Phase:
        """Items/s per insert call of ingest_chunk points into a growing sketch."""
        n, chunk = self.w.n_points, self.w.ingest_chunk
        joint_bytes = self.joint.to_bytes()
        state = {"sketch": self.RaceSketch(self.cfg), "next": 0}

        def step():
            s, i0 = state["sketch"], state["next"]
            i1 = min(n, i0 + chunk)
            try:
                dt = self.insert(s, i0, i1)
            except Exception as exc:  # counted, the run goes on
                self.tally.fail("ingest", exc)
                state.update(sketch=self.RaceSketch(self.cfg), next=0)
                return math.nan
            self.tally.attempted += i1 - i0
            if i1 == n:
                self.tally.check("ingest build equals joint build", s.to_bytes() == joint_bytes)
                state.update(sketch=self.RaceSketch(self.cfg), next=0)
            else:
                state["next"] = i1
            return (i1 - i0) / dt

        return Phase(3, step)

    def phase_update(self) -> Phase:
        """Ops/s of a sliding-window stream: add item t, remove item t - W."""
        n, W = self.w.n_points, self.w.window
        s = self.build_matrix(np.arange(W))
        state = {"t": W}
        pts = self.points

        def step():
            t = state["t"]
            try:
                t0 = time.perf_counter()
                for k in range(t, t + UPDATE_PAIRS):
                    s.add(pts[k % n])
                    s.remove(pts[(k - W) % n])
                dt = time.perf_counter() - t0
            except Exception as exc:
                self.tally.fail("update", exc)
                return math.nan
            state["t"] = t + UPDATE_PAIRS
            self.tally.attempted += 2 * UPDATE_PAIRS
            return 2 * UPDATE_PAIRS / dt

        def finish():
            t = state["t"]
            window = self.build_matrix(np.arange(t - W, t) % n)
            self.tally.check("sliding window equals window build", s == window and s.items == W)

        return Phase(5, step, finish)

    def phase_query(self) -> Phase:
        """Latency in ms of single estimate calls, cycling the query set."""
        first: Dict[int, float] = {}
        qs = self.queries
        sketch = self.joint
        state = {"i": 0}

        def step():
            i = state["i"] % len(qs)
            state["i"] += 1
            try:
                t0 = time.perf_counter_ns()
                value = sketch.estimate(qs[i]).value
                dt = time.perf_counter_ns() - t0
            except Exception as exc:
                self.tally.fail("estimate", exc)
                return math.nan
            self.tally.check("estimate repeats", first.setdefault(i, value) == value)
            return dt / 1e6

        return Phase(max(1000, len(qs)), step)

    def phase_batch(self) -> Phase:
        """Queries/s of raw_query_matrix on blocks of batch_rows densified queries."""
        Q = self.Q
        ref = self.joint.raw_query_matrix(Q)
        single = np.array([self.joint.raw_query(q) for q in self.queries[:20]])
        self.tally.check("raw_query_matrix rows == raw_query", np.array_equal(ref[:20], single))
        rows = self.w.batch_rows
        starts = list(range(0, Q.shape[0], rows))
        state = {"k": 0}

        def step():
            i0 = starts[state["k"] % len(starts)]
            state["k"] += 1
            block = Q[i0:i0 + rows]
            try:
                t0 = time.perf_counter()
                out = self.joint.raw_query_matrix(block)
                dt = time.perf_counter() - t0
            except Exception as exc:
                self.tally.fail("raw_query_matrix", exc)
                return math.nan
            self.tally.check("raw_query_matrix block == full", np.array_equal(out, ref[i0:i0 + rows]))
            return block.shape[0] / dt

        return Phase(len(starts), step)

    def phase_merge(self) -> Phase:
        """Seconds for to_bytes on K shards, from_bytes of each, and a merge chain."""
        RS = self.RaceSketch

        def step():
            try:
                t0 = time.perf_counter()
                blobs = [s.to_bytes() for s in self.shards]
                loaded = [RS.from_bytes(b) for b in blobs]
                merged = loaded[0]
                for other in loaded[1:]:
                    merged = merged.merge(other)
                dt = time.perf_counter() - t0
            except Exception as exc:
                self.tally.fail("merge roundtrip", exc)
                return math.nan
            self.tally.check("merge roundtrip equals joint build", merged == self.joint)
            return dt

        return Phase(5, step)

    def phase_cli(self, times: Dict[str, List[float]]) -> Phase:
        """Wall time of each `python -m racekde <cmd>` child, one at a time,
        appended to times[cmd]; the samples are the peak RSS of sketch and query."""
        out = self.workdir / "cli"
        out.mkdir(exist_ok=True)
        argv = self.cli_args(out)
        times.update({cmd: [] for cmd in argv})
        files = {"sketch": "cli.sketch", "query": "est.csv", "merge": "merged.sketch", "eval": "eval.csv"}
        reference: Dict[str, str] = {}

        def step():
            peak = 0.0
            for cmd, args in argv.items():
                wall, rc, maxrss, _ = self.child([sys.executable, "-m", "racekde", *args])
                if not self.tally.check(f"racekde {cmd} exit code", rc == 0):
                    continue
                times[cmd].append(wall)
                if cmd in ("sketch", "query"):
                    peak = max(peak, maxrss)
                digest = sha256(out / files[cmd])
                self.tally.check(f"racekde {cmd} output repeats", reference.setdefault(cmd, digest) == digest)
            if "cli_sketch" not in self.digests and len(reference) == len(files):
                self.check_cli_outputs(*(out / f for f in files.values()))
            return peak

        return Phase(CLI_REPS, step)

    # ------------------------------------------------------- traced schedule

    def schedule(self, cli_main: Callable, wrap_cli: Callable, out: Path) -> None:
        """Fixed work, so every count repeats exactly for a given seed."""
        n, W, chunk = self.w.n_points, self.w.window, self.w.ingest_chunk
        s = self.RaceSketch(self.cfg)
        for i0 in range(0, min(n, 3 * chunk), chunk):
            self.insert(s, i0, min(n, i0 + chunk))
        s = self.build_matrix(np.arange(W))
        for k in range(W, W + 50):
            s.add(self.points[k % n])
            s.remove(self.points[(k - W) % n])
        for q in self.queries[:200]:
            self.joint.estimate(q)
        self.joint.raw_query_matrix(self.Q)
        loaded = [self.RaceSketch.from_bytes(x.to_bytes()) for x in self.shards]
        merged = loaded[0]
        for other in loaded[1:]:
            merged = merged.merge(other)
        out.mkdir(exist_ok=True)
        with contextlib.redirect_stdout(_io.StringIO()):
            for cmd, args in self.cli_args(out).items():
                with wrap_cli(cmd):
                    rc = cli_main(args)
                self.tally.check(f"in-process racekde {cmd}", rc == 0)

    def peak_alloc_mb(self) -> float:
        """Peak traced allocation of one add_matrix call of ingest_chunk points."""
        s = self.RaceSketch(self.cfg)
        block = self.X[: self.w.ingest_chunk]
        tracemalloc.start()
        try:
            s.add_matrix(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20


def matmul_floor_s(shapes: Dict[tuple, int], seed: int) -> float:
    """Time of bare X @ W.T at the shapes slots_for_block saw, times their counts."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for (n, d, k), count in shapes.items():
        X, W = rng.normal(size=(n, d)), rng.normal(size=(k, d))
        reps = []
        for _ in range(3):
            t0 = time.perf_counter()
            X @ W.T
            reps.append(time.perf_counter() - t0)
        total += count * statistics.median(reps)
    return total
