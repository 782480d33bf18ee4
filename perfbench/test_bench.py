"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import highest_percentile, percentile  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_of_nested_spans():
    # root [0, 100) has children [10, 40) and [30, 60) (overlapping, union 50)
    # and [90, 120) (clipped to 10); the first child has a grandchild [15, 25).
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["g", 15, 25, 1, 0],
        ["b", 30, 60, 0, 0],
        ["c", 90, 120, 0, 0],
    ]
    assert self_times(spans) == [40, 20, 10, 30, 30]
    summary = summarize(spans)
    assert summary["root"] == (1, 40e-9)
    assert summary["g"] == (1, 10e-9)


def test_tracer_records_parents_and_generator_steps():
    tracer = Tracer()

    def gen():
        with tracer.span("inner"):
            pass
        yield 1
        yield 2

    wrapped = tracer.wrap("outer", gen)
    with tracer.span("caller"):
        assert list(wrapped()) == [1, 2]
    names = [s[0] for s in tracer.spans]
    assert names == ["caller", "outer", "inner", "outer", "outer"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 0]
    assert all(s[4] == 0 for s in tracer.spans)
    assert tracer.counts["outer.items"] == 2


def test_rebinding_is_undone():
    sys.path.insert(0, str(ROOT / "src"))
    from racekde import lsh, sketch
    from tracing import install_racekde

    before = (lsh.hash_all, sketch.hash_all, sketch.RaceSketch.__dict__["from_bytes"])
    tracer = Tracer()
    install_racekde(tracer)
    try:
        assert sketch.hash_all is not before[1] and lsh.hash_all is sketch.hash_all
    finally:
        tracer.uninstall()
    assert (lsh.hash_all, sketch.hash_all, sketch.RaceSketch.__dict__["from_bytes"]) == before


@pytest.mark.parametrize(
    "n, expected", [(9, None), (20, 50), (100, 90), (999, 90), (1000, 99), (10000, 99.9)]
)
def test_highest_percentile_has_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_nearest_rank_percentile():
    samples = list(range(1000, 0, -1))  # 1..1000, unsorted
    assert percentile(samples, 50) == 500
    assert percentile(samples, 99) == 990
    assert sum(s > percentile(samples, 99) for s in samples) == 10


def test_slow_quartile_takes_the_slow_side():
    from run import _slow_quartile

    samples = [float(x) for x in range(100, 0, -1)] + [float("nan")]
    assert _slow_quartile(samples) == 75.0  # times: the 75th percentile
    assert _slow_quartile(samples, higher_is_faster=True) == 25.0  # rates: the 25th
    assert _slow_quartile([float("nan")]) is None


def test_benchmark_json_matches_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_smoke_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 6
