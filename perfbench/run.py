"""racekde benchmark: one command runs a workload, checks its outputs and
prints every metric by name and unit.

    python3 perfbench/run.py --workload dense-l2 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke      # tiny sizes, all workloads, both modes

Run it from the root of a source checkout: it imports racekde from
``src/`` and runs the CLI children from there. ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs a fixed schedule
once untraced and once with every layer boundary traced, and prints the
per-layer metrics. Each timed phase takes many samples spread over the
whole run and reports the quartile on their slow side (see
``_slow_quartile``); ``setup_s`` and ``cli_peak_rss_mb`` are medians. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Metric names and units come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from spawner import Spawner

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread, here and in every child: the load is one closed-loop
# caller, and a BLAS pool as wide as a small machine's cores turns each
# matrix call into a wait on the scheduler. Set before numpy is imported.
for _name in BLAS_ENV:
    os.environ[_name] = "1"


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "numba_present": importlib.util.find_spec("numba") is not None,
    }


def _good(samples):
    return sorted(s for s in samples if not math.isnan(s))


def _median(samples):
    good = _good(samples)
    return statistics.median(good) if good else None


def _slow_quartile(samples, higher_is_faster: bool = False):
    """The quartile on the slow side: the 75th percentile of times, or the
    25th percentile of rates (nearest rank).

    The host these runs share alternates between its own speed and a
    loaded speed up to 1.6x slower, in stretches of milliseconds to
    minutes, and the share of a run spent in each differs from run to run.
    The median falls between the two modes and jumps with that share. The
    loaded mode has held at least a quarter of every run seen, so the slow
    quartile measures one mode and stays put.
    """
    from measure import percentile

    good = _good(samples)
    if not good:
        return None
    return percentile(good, 25 if higher_is_faster else 75)


def end_to_end(bench, seconds: float, smoke: bool) -> dict:
    from measure import ROUNDS, SHARES, highest_percentile, interleave, percentile

    cli = {}
    phases = {
        "setup": bench.phase_setup(), "ingest": bench.phase_ingest(),
        "update": bench.phase_update(), "query": bench.phase_query(),
        "batch": bench.phase_batch(), "merge": bench.phase_merge(),
        "cli": bench.phase_cli(cli),
    }
    t0 = time.perf_counter()
    interleave(phases, {k: v * seconds for k, v in SHARES.items()}, ROUNDS,
               min_reps_cap=1 if smoke else None)
    print(f"measured phases: {time.perf_counter() - t0:.1f} s wall")
    samples = {k: ph.samples for k, ph in phases.items()}
    samples.update({f"cli_{cmd}": v for cmd, v in cli.items()})
    for k, v in samples.items():
        good = _good(v)
        if good:
            q = statistics.quantiles(good, n=4) if len(good) > 1 else good * 3
            print(f"samples {k}: n={len(good)} min={good[0]:.6g} q1={q[0]:.6g} "
                  f"median={q[1]:.6g} q3={q[2]:.6g} max={good[-1]:.6g}")
    latency = _good(samples["query"])
    top = highest_percentile(len(latency))
    print(f"query latency: n={len(latency)}, highest percentile with >=10 samples beyond: p{top}"
          f" = {percentile(latency, top) if top else float('nan'):.4f} ms")
    return {
        "setup_s": _median(samples["setup"]),
        "ingest_items_per_s": _slow_quartile(samples["ingest"], True),
        "update_ops_per_s": _slow_quartile(samples["update"], True),
        "query_p75_ms": percentile(latency, 75) if latency else None,
        "query_p90_ms": percentile(latency, 90) if latency else None,
        "batch_query_per_s": _slow_quartile(samples["batch"], True),
        "merge_roundtrip_s": _slow_quartile(samples["merge"]),
        "cli_sketch_s": _slow_quartile(cli["sketch"]),
        "cli_query_s": _slow_quartile(cli["query"]),
        "cli_merge_s": _slow_quartile(cli["merge"]),
        "cli_eval_s": _slow_quartile(cli["eval"]),
        "cli_peak_rss_mb": _median(samples["cli"]),
    }


def per_layer(bench, seed: int, names) -> dict:
    from racekde import cli

    from measure import matmul_floor_s
    from tracing import Tracer, install_racekde, summarize

    def untraced(tag):
        t0 = time.perf_counter()
        bench.schedule(cli.main, lambda cmd: contextlib.nullcontext(), bench.workdir / tag)
        return time.perf_counter() - t0

    peak = bench.peak_alloc_mb()
    first = untraced("plain1")
    tracer = Tracer()
    install_racekde(tracer)
    try:
        t0 = time.perf_counter()
        bench.schedule(cli.main, lambda cmd: tracer.span(f"cli.{cmd}"), bench.workdir / "traced")
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    second = untraced("plain2")
    out = bench.workdir / "traced"
    bench.check_cli_outputs(*(out / f for f in ("cli.sketch", "est.csv", "merged.sketch", "eval.csv")))
    tracer.write(str(WORK / f"trace-{bench.w.name}-seed{seed}.jsonl"))

    summary = summarize(tracer.spans)
    counts = tracer.counts
    item_rows = counts["lsh.slots_for_block.item_rows"]
    special = {
        "lsh.projection_block.components": counts["lsh.projection_block.components"],
        "lsh.slots_for_block.ns_per_item_row":
            summary.get("lsh.slots_for_block", (0, 0.0))[1] / item_rows * 1e9 if item_rows else 0.0,
        "lsh.matmul_floor_s": matmul_floor_s(tracer.shapes, seed),
        "sketch.add_matrix.peak_alloc_mb": peak,
        "sketch.bytes": bench.joint.memory_bytes(),
        "sketch.nonzero_fraction": bench.joint.nonzero_fraction(),
        "sketch.items": bench.joint.items,
        "io.lines": counts["io.read_dense.items"] + counts["io.read_sparse.items"],
        "kernels.KernelEval.distance.calls": counts["kernels.KernelEval.distance.calls"],
        "trace.overhead_ratio": traced / ((first + second) / 2),
        "quality.median_rel_error": bench.quality(),
    }
    print(f"trace: {len(tracer.spans)} spans, traced {traced:.3f} s, untraced {first:.3f} s and {second:.3f} s")
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".self_s"):
            metrics[name] = summary.get(name[: -len(".self_s")], (0, 0.0))[1]
        elif name.endswith(".calls"):
            metrics[name] = summary.get(name[: -len(".calls")], (0, 0.0))[0]
        else:
            raise KeyError(f"no measurement for per-layer metric {name}")
    return metrics


def run(spawner, workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    from measure import Bench
    from workloads import WORKLOADS, smoke as shrink

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[workload]
    if smoke:
        w = shrink(w)
    workdir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(w, seed, ROOT, workdir, spawner)
        bench.check_library()
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        if trace:
            values = per_layer(bench, seed, [m["name"] for m in declared])
        else:
            values = end_to_end(bench, seconds, smoke)
            print(f"quality.median_rel_error: {bench.quality()!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = bench.tally
    if not trace:
        values["success_rate"] = 1.0 - tally.failed / max(1, tally.attempted)
    for name, digest in sorted(bench.digests.items()):
        print(f"sha256 {name} {digest}")
    for note in tally.notes[:20]:
        print(f"FAILED {note}")
    print(f"error_rate: {tally.failed / max(1, tally.attempted)!r} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    ok = tally.failed == 0 and all(v["value"] is not None for v in metrics.values())
    return {"correct": ok, "attempted": max(1, tally.attempted), "failed": tally.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes in both modes")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    src = ROOT / "src"
    if not (src / "racekde" / "__init__.py").is_file():
        print(f"error: no racekde sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # The spawner starts while this process is small; see spawner.py.
    with Spawner() as spawner:
        return _main(parser, args, spawner)


def _main(parser, args, spawner) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import racekde

    from workloads import WORKLOADS

    if Path(racekde.__file__).resolve().parent != (src / "racekde").resolve():
        print(f"error: imported racekde from {racekde.__file__}, not {src}", file=sys.stderr)
        return 2
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    if not args.smoke:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        result = run(spawner, args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            print(f"== smoke {name} trace={int(trace)}")
            res = run(spawner, name, args.seed, 1.0, trace, smoke=True)
            results[f"{name}/trace{int(trace)}"] = res["correct"]
    ok = all(results.values())
    print(json.dumps({"correct": ok, "attempted": len(results),
                      "failed": sum(not v for v in results.values()), "metrics": {}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
