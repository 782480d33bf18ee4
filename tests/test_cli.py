import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from racekde import DataVector, hash_all, l2_collision
from racekde.cli import main
from racekde.lsh import LshConfig
from racekde.sketch import RaceSketch

from helpers import crafted_file, with_field, with_items, with_sigma


@pytest.fixture
def data_dir(tmp_path):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 4))
    Q = rng.normal(size=(5, 4))
    dense = tmp_path / "data.txt"
    dense.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in X) + "\n")
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in Q) + "\n")
    return tmp_path


def _sketch_args(data_dir, out, seed=0, rows=40):
    return [
        "sketch",
        "--input", str(data_dir / "data.txt"),
        "--kind", "l2",
        "--sigma", "1.5",
        "--rows", str(rows),
        "--range", "16",
        "--seed", str(seed),
        "--output", str(out),
    ]


def test_sketch_then_query(data_dir, capsys):
    out = data_dir / "s.bin"
    assert main(_sketch_args(data_dir, out)) == 0
    captured = capsys.readouterr().out
    assert "items=60" in captured

    csv_out = data_dir / "est.csv"
    rc = main([
        "query",
        "--sketch", str(out),
        "--queries", str(data_dir / "queries.txt"),
        "--output", str(csv_out),
    ])
    assert rc == 0
    with open(csv_out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    assert all(r["exact"] == "" and r["rel_error"] == "" for r in rows)
    assert all(r["method"] == "race" for r in rows)


def test_sketch_deterministic_rerun(data_dir):
    a = data_dir / "a.bin"
    b = data_dir / "b.bin"
    assert main(_sketch_args(data_dir, a)) == 0
    assert main(_sketch_args(data_dir, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_merge_matches_joint_sketch(data_dir, tmp_path):
    text = (data_dir / "data.txt").read_text().splitlines()
    half1 = tmp_path / "h1.txt"
    half2 = tmp_path / "h2.txt"
    half1.write_text("\n".join(text[:30]) + "\n")
    half2.write_text("\n".join(text[30:]) + "\n")
    for name in ("h1", "h2"):
        args = _sketch_args(data_dir, tmp_path / f"{name}.bin")
        args[2] = str(tmp_path / f"{name}.txt")
        assert main(args) == 0
    joint = tmp_path / "joint.bin"
    assert main(_sketch_args(data_dir, joint)) == 0
    merged = tmp_path / "merged.bin"
    rc = main([
        "merge", str(tmp_path / "h1.bin"), str(tmp_path / "h2.bin"),
        "--output", str(merged),
    ])
    assert rc == 0
    assert merged.read_bytes() == joint.read_bytes()


def test_merge_mismatched_configs_is_data_error(data_dir, capsys):
    a = data_dir / "a.bin"
    b = data_dir / "b.bin"
    assert main(_sketch_args(data_dir, a, seed=1)) == 0
    assert main(_sketch_args(data_dir, b, seed=2)) == 0
    rc = main(["merge", str(a), str(b), "--output", str(data_dir / "m.bin")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_info_prints_header(data_dir, capsys):
    out = data_dir / "s.bin"
    main(_sketch_args(data_dir, out))
    capsys.readouterr()
    assert main(["info", str(out)]) == 0
    text = capsys.readouterr().out
    for line in ("kind: l2", "dim: 4", "rows: 40", "range: 16", "items: 60"):
        assert line in text


def test_eval_csv_budgets(data_dir):
    csv_out = data_dir / "eval.csv"
    rc = main([
        "eval",
        "--input", str(data_dir / "data.txt"),
        "--queries", str(data_dir / "queries.txt"),
        "--kind", "l2",
        "--sigma", "1.5",
        "--range", "16",
        "--groups", "5",
        "--sizes", "2000,8000",
        "--output", str(csv_out),
    ])
    assert rc == 0
    with open(csv_out) as f:
        rows = list(csv.DictReader(f))
    # 2 budgets x 2 methods x 5 queries
    assert len(rows) == 20
    assert {r["method"] for r in rows} == {"race", "rs"}
    for r in rows:
        assert r["exact"] != ""
        assert int(r["bytes"]) > 0
        if r["exact"] not in ("", "0"):
            expected = (float(r["estimate"]) - float(r["exact"])) / float(r["exact"])
            assert float(r["rel_error"]) == pytest.approx(expected, rel=1e-12)
    race_bytes = sorted({int(r["bytes"]) for r in rows if r["method"] == "race"})
    assert race_bytes[0] < race_bytes[1] <= 8000


def test_usage_errors_exit_one(data_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sketch", "--input", "x"])  # missing required flags
    assert exc.value.code == 1
    capsys.readouterr()
    rc = main([
        "eval",
        "--input", str(data_dir / "data.txt"),
        "--queries", str(data_dir / "queries.txt"),
        "--kind", "l2",
        "--range", "16",
        "--groups", "4",
        "--sizes", "2000",
        "--output", str(data_dir / "x.csv"),
    ])
    assert rc == 1  # even group count
    capsys.readouterr()
    args = _sketch_args(data_dir, data_dir / "s.bin")
    args[args.index("--kind") + 1] = "srp"
    assert main(args) == 1  # srp with range != 2**power
    capsys.readouterr()


def test_data_errors_exit_two(data_dir, tmp_path, capsys):
    assert main(["info", str(tmp_path / "missing.bin")]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n4 5\n")
    args = _sketch_args(data_dir, tmp_path / "s.bin")
    args[2] = str(bad)
    assert main(args) == 2
    assert "line 2" in capsys.readouterr().err

    out = data_dir / "s.bin"
    main(_sketch_args(data_dir, out))
    corrupt = bytearray(out.read_bytes())
    corrupt[-1] ^= 0x40
    (tmp_path / "c.bin").write_bytes(bytes(corrupt))
    assert main(["info", str(tmp_path / "c.bin")]) == 2
    capsys.readouterr()

    (tmp_path / "huge.bin").write_bytes(crafted_file(2**20, 2**30, 0))
    assert main(["info", str(tmp_path / "huge.bin")]) == 2
    assert "dense payload" in capsys.readouterr().err

    (tmp_path / "items.bin").write_bytes(with_items(out.read_bytes(), 999))
    assert main(["info", str(tmp_path / "items.bin")]) == 2
    assert "row sums" in capsys.readouterr().err
    rc = main([
        "query", "--sketch", str(tmp_path / "items.bin"),
        "--queries", str(data_dir / "queries.txt"),
        "--output", str(tmp_path / "q.csv"),
    ])
    assert rc == 2
    assert "row sums" in capsys.readouterr().err

    full, one = (RaceSketch(LshConfig("l2", 4, 1.5, 1, 1, 16, 0)) for _ in range(2))
    full._counts[0, 3] = full.items = 2**64 - 1
    one._counts[0, 3] = one.items = 1
    full.serialize(str(tmp_path / "full.bin"))
    one.serialize(str(tmp_path / "one.bin"))
    rc = main(["merge", str(tmp_path / "full.bin"), str(tmp_path / "one.bin"),
               "--output", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "64 bits" in capsys.readouterr().err

    wrongdim = tmp_path / "q2.txt"
    wrongdim.write_text("1 2 3 4 5\n")
    rc = main([
        "query", "--sketch", str(out),
        "--queries", str(wrongdim),
        "--output", str(tmp_path / "q.csv"),
    ])
    assert rc == 2
    capsys.readouterr()


def test_sparse_input_roundtrip(tmp_path, capsys):
    data = tmp_path / "sparse.txt"
    data.write_text("a 1:1.0 3:2.0\nb 2:1.5\nc 1:-1.0 4:0.5\n")
    out = tmp_path / "s.bin"
    rc = main([
        "sketch", "--input", str(data), "--format", "sparse", "--dim", "4",
        "--kind", "l2", "--sigma", "1.0", "--rows", "20", "--range", "8",
        "--output", str(out),
    ])
    assert rc == 0
    assert "items=3" in capsys.readouterr().out
    sketch = RaceSketch.deserialize(str(out))
    assert sketch.config.dim == 4
    assert sketch.items == 3

    rc = main([
        "sketch", "--input", str(data), "--format", "sparse",
        "--kind", "l2", "--sigma", "1.0", "--rows", "20", "--range", "8",
        "--output", str(out),
    ])
    assert rc == 1  # sparse without --dim
    capsys.readouterr()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "racekde", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sketch" in proc.stdout and "eval" in proc.stdout


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("sketch", "--range", "1"),
        ("sketch", "--power", "0"),
        ("sketch", "--rows", "0"),
        ("eval", "--sigma", "0"),
        ("eval", "--range", "1"),
        ("eval", "--power", "0"),
    ],
)
def test_invalid_config_flags_exit_one(data_dir, capsys, command, flag, value):
    if command == "sketch":
        args = _sketch_args(data_dir, data_dir / "s.bin")
    else:
        args = [
            "eval",
            "--input", str(data_dir / "data.txt"),
            "--queries", str(data_dir / "queries.txt"),
            "--kind", "l2", "--sigma", "1.5", "--range", "16",
            "--sizes", "2000", "--output", str(data_dir / "e.csv"),
        ]
    assert main(args + [flag, value]) == 1  # the last occurrence of a flag wins
    err = capsys.readouterr().err
    assert err.startswith("racekde: error: ") and "Traceback" not in err


def _eval_args(data_dir, *extra):
    return [
        "eval",
        "--input", str(data_dir / "data.txt"),
        "--queries", str(data_dir / "queries.txt"),
        "--output", str(data_dir / "e.csv"),
        *extra,
    ]


@pytest.mark.parametrize("command", ["query", "eval"])
def test_groups_over_rows_exit_one(data_dir, capsys, command):
    if command == "query":
        assert main(_sketch_args(data_dir, data_dir / "s.bin", rows=4)) == 0
        args = [
            "query", "--sketch", str(data_dir / "s.bin"),
            "--queries", str(data_dir / "queries.txt"),
            "--output", str(data_dir / "q.csv"),
        ]
    else:  # a 500-byte l1 budget at range 8 holds 6 rows
        args = _eval_args(data_dir, "--kind", "l1", "--range", "8", "--sizes", "500")
    capsys.readouterr()
    assert main(args) == 1  # the default --groups is 9
    err = capsys.readouterr().err
    assert err.startswith("racekde: error: --groups 9 exceeds") and "Traceback" not in err


@pytest.mark.parametrize("fmt, dim", [("sparse", "0"), ("dense", "0"), ("sparse", "-3")])
@pytest.mark.parametrize("command", ["sketch", "query", "eval"])
def test_non_positive_dim_exits_one(data_dir, tmp_path, capsys, command, fmt, dim):
    sparse = tmp_path / "sparse.txt"
    sparse.write_text("1:1.0 3:2.0\n2:1.5\n")
    data = str(sparse if fmt == "sparse" else data_dir / "data.txt")
    flags = ["--format", fmt, "--dim", dim]
    if command == "sketch":
        args = _sketch_args(data_dir, tmp_path / "s.bin") + flags
        args[args.index("--input") + 1] = data
    elif command == "query":
        assert main(_sketch_args(data_dir, tmp_path / "s.bin")) == 0
        args = [
            "query", "--sketch", str(tmp_path / "s.bin"), "--queries", data,
            "--output", str(tmp_path / "q.csv"), *flags,
        ]
    else:
        args = _eval_args(data_dir, "--kind", "l1", "--range", "8", "--sizes", "2000", *flags)
        args[args.index("--input") + 1] = args[args.index("--queries") + 1] = data
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "racekde: error: --dim must be positive\n"


def test_non_finite_input_exits_two(data_dir, tmp_path, capsys):
    bad = tmp_path / "nan.txt"
    bad.write_text("1 2 3 4\n1 nan 3 4\n")
    args = _sketch_args(data_dir, tmp_path / "s.bin")
    args[2] = str(bad)
    assert main(args) == 2
    assert "line 2" in capsys.readouterr().err

    sparse = tmp_path / "inf.txt"
    sparse.write_text("1:1.0\n2:inf\n")
    rc = main([
        "sketch", "--input", str(sparse), "--format", "sparse", "--dim", "4",
        "--kind", "l1", "--sigma", "1.0", "--rows", "8", "--range", "8",
        "--output", str(tmp_path / "s2.bin"),
    ])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


SCIPY_PROBE = r"""
import json, sys
import racekde
loaded = {"import": "scipy" in sys.modules}
from racekde.cli import main
from racekde import DataVector, LshConfig, hash_all, l2_collision

args = json.loads(sys.argv[1])
for name, argv in args.items():
    assert main(argv) == 0, name
    loaded[name] = "scipy" in sys.modules
x = DataVector.dense([0.5, -1.0, 2.0, 0.25])
out = {
    "loaded": loaded,
    "srp": hash_all(LshConfig("srp", 4, 0.0, 3, 30, 8, 5), x).tolist(),
    "l2": hash_all(LshConfig("l2", 4, 1.5, 2, 30, 64, 5), x).tolist(),
    "l2_collision": l2_collision([0.0, 0.3, 1.7, 9.0], 1.5).tolist(),
}
print(json.dumps(out))
"""


def test_scipy_loaded_only_for_srp_l2(data_dir, tmp_path):
    sk = str(tmp_path / "l1.sk")
    l1 = ["--kind", "l1", "--sigma", "1.5", "--range", "16"]
    data, queries = str(data_dir / "data.txt"), str(data_dir / "queries.txt")
    commands = {
        "sketch": ["sketch", "--input", data, *l1, "--rows", "20", "--output", sk],
        "query": ["query", "--sketch", sk, "--queries", queries, "--output", str(tmp_path / "q.csv")],
        "merge": ["merge", sk, sk, "--output", str(tmp_path / "m.sk")],
        "info": ["info", sk],
        "eval": ["eval", "--input", data, "--queries", queries, *l1, "--sizes", "2000",
                 "--output", str(tmp_path / "e.csv")],
    }
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["loaded"] == dict.fromkeys(["import", *commands], False)
    x = DataVector.dense([0.5, -1.0, 2.0, 0.25])
    assert got["srp"] == hash_all(LshConfig("srp", 4, 0.0, 3, 30, 8, 5), x).tolist()
    assert got["l2"] == hash_all(LshConfig("l2", 4, 1.5, 2, 30, 64, 5), x).tolist()
    assert got["l2_collision"] == l2_collision([0.0, 0.3, 1.7, 9.0], 1.5).tolist()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", ["sketch", "eval"])
def test_non_finite_sigma_exits_one(data_dir, capsys, command, value):
    if command == "sketch":
        args = _sketch_args(data_dir, data_dir / "s.bin")
    else:
        args = _eval_args(data_dir, "--kind", "l2", "--range", "16", "--sizes", "2000")
    assert main(args + [f"--sigma={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("racekde: error: sigma must be") and "Traceback" not in err
    assert not (data_dir / "s.bin").exists() and not (data_dir / "e.csv").exists()


def test_info_non_finite_sigma_exits_two(data_dir, capsys):
    path = data_dir / "s.bin"
    assert main(_sketch_args(data_dir, path)) == 0
    path.write_bytes(with_sigma(path.read_bytes(), float("inf")))
    capsys.readouterr()
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err.startswith("racekde: error: invalid config in header")


@pytest.mark.parametrize("kind, hash_range", [("l2", "1"), ("l2", "0"), ("srp", "3")])
def test_eval_checks_configs_before_exact_densities(data_dir, monkeypatch, capsys, kind,
                                                    hash_range):
    def never(*args):
        raise AssertionError("exact_kde ran before the configs were checked")

    monkeypatch.setattr("racekde.cli.exact_kde", never)
    args = _eval_args(data_dir, "--kind", kind, "--range", hash_range, "--sizes", "2000,8000")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("racekde: error: ") and "range must be" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sizes", "3000,3000", "--methods", "race,race"], "--methods repeats 'race'"),
        (["--sizes", "3000,2000,3000", "--methods", "race"], "--sizes repeats 3000"),
        (["--sizes", "3000,03000", "--methods", "rs"], "--sizes repeats 3000"),
        (["--sizes", "3000", "--methods", "rs, race,rs"], "--methods repeats 'rs'"),
    ],
)
def test_eval_refuses_repeated_entries_before_exact_densities(data_dir, monkeypatch, capsys,
                                                              flags, message):
    def never(*args):
        raise AssertionError("exact_kde ran before the flags were checked")

    monkeypatch.setattr("racekde.cli.exact_kde", never)
    args = _eval_args(data_dir, "--kind", "l2", "--range", "16", *flags)
    assert main(args) == 1
    assert _error_line(capsys) == f"racekde: error: {message}\n"
    assert not (data_dir / "e.csv").exists()


def test_query_reads_at_the_sketch_dimension(data_dir, tmp_path, capsys):
    dense = tmp_path / "s.bin"
    assert main(_sketch_args(data_dir, dense)) == 0
    queries = tmp_path / "q.txt"
    queries.write_text("# a comment, then a blank line\n\n1 2 3\n")
    capsys.readouterr()
    query = ["query", "--queries", str(queries), "--output", str(tmp_path / "q.csv")]
    assert main(query + ["--sketch", str(dense)]) == 2
    assert capsys.readouterr().err == "racekde: error: line 3: expected 4 entries, found 3\n"

    wide = RaceSketch(LshConfig("l1", 8, 1.0, 1, 9, 8, 0))
    wide.add(DataVector.dense(np.arange(8.0)))
    wide.serialize(str(tmp_path / "wide.bin"))
    queries.write_text("not:a vector\n")  # refused before it is read
    sparse = ["--sketch", str(tmp_path / "wide.bin"), "--format", "sparse", "--dim", "5"]
    assert main(query + sparse) == 2
    assert capsys.readouterr().err == "racekde: error: expected dimension 8, got --dim 5\n"


def test_foreign_rehash_family_exits_two(data_dir, tmp_path, capsys):
    path = tmp_path / "s.bin"
    assert main(_sketch_args(data_dir, path)) == 0
    path.write_bytes(with_field(path.read_bytes(), "<I", 54, 2))
    query = ["query", "--sketch", str(path), "--queries", str(data_dir / "queries.txt"),
             "--output", str(tmp_path / "q.csv")]
    for argv in (["info", str(path)], query):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "racekde: error: unknown rehash family 2\n"


def _error_line(capsys):
    """The one stderr line of a failed command, with no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("racekde: error: ") and err.count("\n") == 1, err
    return err


def test_data_errors_by_kind_exit_two(data_dir, tmp_path, capsys):
    RaceSketch(LshConfig("l2", 4, 1.5, 1, 9, 16, 0)).serialize(str(tmp_path / "empty.bin"))
    query = ["query", "--sketch", str(tmp_path / "empty.bin"),
             "--queries", str(data_dir / "queries.txt"), "--output", str(tmp_path / "q.csv")]
    assert main(query) == 2
    assert "empty sketch" in _error_line(capsys)

    (tmp_path / "latin1.txt").write_bytes(b"1 2 3 4\n\xe9 2 3 4\n")
    for path in (tmp_path, tmp_path / "latin1.txt"):  # a directory, then non-UTF-8 bytes
        args = _sketch_args(data_dir, tmp_path / "s.bin")
        args[args.index("--input") + 1] = str(path)
        assert main(args) == 2
        _error_line(capsys)
    assert main(["info", str(tmp_path)]) == 2
    _error_line(capsys)

    args = _sketch_args(data_dir, tmp_path / "s.bin") + ["--sigma", "1e-300"]
    assert main(args) == 2
    assert "hash code exceeds 64 bits" in _error_line(capsys)
    assert not (tmp_path / "s.bin").exists()


def test_config_fields_beyond_the_file_exit_one_before_hashing(data_dir, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("hashed before the config was checked")

    monkeypatch.setattr("racekde.sketch.hash_all", never)
    for flag, value, message in (
        ("--power", "70000", "power must lie in [1, 2**16)"),
        ("--rows", str(2**32), "rows must lie in [1, 2**32)"),
        ("--range", str(2**64), "hash_range must be below 2**64"),
    ):
        assert main(_sketch_args(data_dir, data_dir / "s.bin") + [flag, value]) == 1
        assert _error_line(capsys) == f"racekde: error: {message}\n"


def test_storage_is_not_a_flag(data_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_sketch_args(data_dir, data_dir / "s.bin") + ["--storage", "dense"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["sketch", "--help"])
    assert "--storage" not in capsys.readouterr().out


def test_sketch_prints_the_size_written(data_dir, tmp_path, capsys):
    out = tmp_path / "s.bin"
    assert main(_sketch_args(data_dir, out)) == 0
    assert f"bytes={out.stat().st_size} " in capsys.readouterr().out
    assert main(["merge", str(out), str(out), "--output", str(tmp_path / "m.bin")]) == 0
    assert f"bytes={(tmp_path / 'm.bin').stat().st_size} " in capsys.readouterr().out


def test_default_range(data_dir, tmp_path, capsys):
    args = _sketch_args(data_dir, tmp_path / "s.bin")
    del args[args.index("--range") : args.index("--range") + 2]
    srp = list(args)
    srp[srp.index("--kind") + 1] = "srp"
    assert main(srp + ["--power", "3"]) == 0
    assert RaceSketch.deserialize(str(tmp_path / "s.bin")).config.hash_range == 8
    capsys.readouterr()
    assert main(args) == 1
    assert _error_line(capsys) == "racekde: error: --range is required for l2/l1\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--methods", "race,knn"], "unknown method 'knn'"),
        (["--sizes", "100,x"], "--sizes must be"),
        (["--repeats", "0"], "--repeats must be"),
        (["--sizes", "70"], "budget 70 too small"),
        (["--methods", ","], "--methods names no method"),
        (["--sizes", "-5", "--methods", "rs"], "--sizes must be positive"),
    ],
)
def test_eval_flag_errors_exit_one(data_dir, capsys, flags, message):
    args = _eval_args(data_dir, "--kind", "l2", "--range", "16", "--sizes", "2000")
    assert main(args + flags) == 1
    assert message in _error_line(capsys)


@pytest.mark.parametrize("command", ["sketch", "eval"])
def test_empty_input_exits_two(data_dir, tmp_path, capsys, command):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no vectors\n")
    if command == "sketch":
        args = _sketch_args(data_dir, tmp_path / "s.bin")
    else:
        args = _eval_args(data_dir, "--kind", "l2", "--range", "16", "--sizes", "2000")
    args[args.index("--input") + 1] = str(empty)
    assert main(args) == 2
    assert "no vectors" in _error_line(capsys)


def test_nonzero_reserved_header_bytes_exit_two(data_dir, tmp_path, capsys):
    path = tmp_path / "s.bin"
    assert main(_sketch_args(data_dir, path)) == 0
    path.write_bytes(with_field(path.read_bytes(), "<3s", 59, b"\x00\x00\x01"))
    capsys.readouterr()
    assert main(["info", str(path)]) == 2
    assert _error_line(capsys) == "racekde: error: reserved header bytes are not zero\n"


def test_sparse_query_reads_at_the_sketch_dimension(tmp_path, capsys):
    data = tmp_path / "sparse.txt"
    data.write_text("a 1:1.0 3:2.0\nb 2:1.5\nc 1:-1.0 4:0.5\n")
    sketch = tmp_path / "s.bin"
    l2 = ["--kind", "l2", "--sigma", "1.0", "--range", "8"]
    assert main(["sketch", "--input", str(data), "--format", "sparse", "--dim", "4", *l2,
                 "--rows", "20", "--output", str(sketch)]) == 0
    query = ["query", "--sketch", str(sketch), "--queries", str(data), "--format", "sparse",
             "--groups", "5"]
    assert main(query + ["--dim", "4", "--output", str(tmp_path / "with.csv")]) == 0
    assert main(query + ["--output", str(tmp_path / "without.csv")]) == 0
    assert (tmp_path / "without.csv").read_text() == (tmp_path / "with.csv").read_text()
    capsys.readouterr()
    # sketch and eval have no sketch to read the dimension from
    evaluate = ["eval", "--input", str(data), "--queries", str(data), "--format", "sparse", *l2,
                "--sizes", "2000", "--output", str(tmp_path / "e.csv")]
    assert main(evaluate) == 1
    assert _error_line(capsys) == "racekde: error: --dim is required for sparse input\n"
