import io

import numpy as np
import pytest

from racekde.io import (
    DatasetFormatError,
    EvalRecord,
    read_dense,
    read_sparse,
    write_eval_csv,
)

from helpers import TARGET_KINDS, as_target


def test_read_dense_basic():
    text = "1.0 2.0 3.0\n# comment\n\n4 5 6\n"
    vecs = list(read_dense(io.StringIO(text)))
    assert len(vecs) == 2
    assert np.array_equal(vecs[0].to_dense(), [1.0, 2.0, 3.0])
    assert np.array_equal(vecs[1].to_dense(), [4.0, 5.0, 6.0])


def test_read_dense_dim_from_first_line():
    with pytest.raises(DatasetFormatError, match="line 2"):
        list(read_dense(io.StringIO("1 2\n3 4 5\n")))


def test_read_dense_declared_dim_enforced():
    with pytest.raises(DatasetFormatError, match="line 1"):
        list(read_dense(io.StringIO("1 2\n"), dim=3))


def test_read_dense_bad_number():
    with pytest.raises(DatasetFormatError, match="line 3"):
        list(read_dense(io.StringIO("1 2\n3 4\nfive 6\n")))


def test_read_dense_is_lazy():
    gen = read_dense(io.StringIO("1 2\nbad line\n"))
    next(gen)  # first vector parses; the error surfaces on the next pull
    with pytest.raises(DatasetFormatError):
        next(gen)


def test_read_sparse_basic():
    text = "label 1:0.5 3:2.0\n2:1.0\n"
    vecs = list(read_sparse(io.StringIO(text), dim=4))
    assert vecs[0].is_sparse
    assert np.array_equal(vecs[0].to_dense(), [0.5, 0.0, 2.0, 0.0])
    assert np.array_equal(vecs[1].to_dense(), [0.0, 1.0, 0.0, 0.0])


def test_read_sparse_zero_index_rejected():
    with pytest.raises(DatasetFormatError, match="1-based"):
        list(read_sparse(io.StringIO("0:1.0\n"), dim=4))


def test_read_sparse_index_beyond_dim_rejected():
    with pytest.raises(DatasetFormatError, match="dimension"):
        list(read_sparse(io.StringIO("5:1.0\n"), dim=4))


def test_read_sparse_out_of_order_rejected():
    with pytest.raises(DatasetFormatError, match="increasing"):
        list(read_sparse(io.StringIO("3:1.0 2:1.0\n"), dim=4))


def test_read_sparse_drops_explicit_zeros():
    vecs = list(read_sparse(io.StringIO("1:0.0 2:3.0\n"), dim=4))
    assert np.array_equal(vecs[0].indices, [1])
    assert np.array_equal(vecs[0].values, [3.0])


def test_read_sparse_malformed_token():
    with pytest.raises(DatasetFormatError, match="malformed"):
        list(read_sparse(io.StringIO("x 2:1.0 junk\n"), dim=4))


def test_rel_error_rules():
    r = EvalRecord(0, "race", "p", 10, exact=0.5, estimate=0.6)
    assert r.rel_error == pytest.approx(0.2)
    assert EvalRecord(0, "race", "p", 10, exact=None, estimate=0.6).rel_error is None
    assert EvalRecord(0, "race", "p", 10, exact=0.0, estimate=0.6).rel_error is None


def test_csv_layout_and_sorting():
    records = [
        EvalRecord(1, "rs", "b=2", 20, 0.5, 0.625),
        EvalRecord(0, "race", "b=1", 10, None, 0.25),
        EvalRecord(1, "race", "b=1", 10, 0.0, 0.75),
    ]
    buf = io.StringIO()
    write_eval_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "query_id,method,params,bytes,exact,estimate,rel_error"
    assert lines[1] == "0,race,b=1,10,,0.25,"
    assert lines[2] == "1,race,b=1,10,0,0.75,"
    assert lines[3] == "1,rs,b=2,20,0.5,0.625,0.25"


def test_csv_floats_roundtrip_exactly():
    exact = 0.1234567890123456789
    estimate = 1 / 3
    buf = io.StringIO()
    write_eval_csv([EvalRecord(0, "race", "p", 8, exact, estimate)], buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert float(row[4]) == exact
    assert float(row[5]) == estimate
    assert float(row[6]) == (estimate - exact) / exact


def test_csv_to_file(tmp_path):
    path = tmp_path / "out.csv"
    write_eval_csv([EvalRecord(0, "race", "p", 8, 1.0, 1.0)], str(path))
    assert path.read_text().splitlines()[1] == "0,race,p,8,1,1,0"


@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_readers_take_a_path_or_a_file(tmp_path, kind):
    dense, sparse = tmp_path / "d.txt", tmp_path / "s.txt"
    dense.write_text("1 2\n# comment\n\n3 4\n")
    sparse.write_text("label 1:0.5\n2:1.0\n")
    with as_target(dense, kind) as source:
        assert [v.to_dense().tolist() for v in read_dense(source)] == [[1, 2], [3, 4]]
    with as_target(sparse, kind) as source:
        assert [v.to_dense().tolist() for v in read_sparse(source, 2)] == [[0.5, 0], [0, 1]]


@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_write_eval_csv_takes_a_path_or_a_file(tmp_path, kind):
    path = tmp_path / "out.csv"
    with as_target(path, kind, "w") as sink:
        write_eval_csv([EvalRecord(0, "race", "p", 8, 1.0, 1.0)], sink)
    assert path.read_bytes() == (
        b"query_id,method,params,bytes,exact,estimate,rel_error\n0,race,p,8,1,1,0\n"
    )


@pytest.mark.parametrize("kind", ["str", "path"])
def test_path_readers_count_every_line_end(tmp_path, kind):
    """A file read by path splits lines at \\n, \\r\\n and a lone \\r alike,
    so an error names the same line whichever ends the file uses."""
    path = tmp_path / "d.txt"
    path.write_bytes(b"1 2\r\n\r\n3 4\r5 x\n")
    with as_target(path, kind) as source, pytest.raises(DatasetFormatError, match="line 4"):
        list(read_dense(source))
    path.write_bytes(b"1:1.0\r\n\r\n2:1.0\r2:x\n")
    with as_target(path, kind) as source, pytest.raises(DatasetFormatError, match="line 4"):
        list(read_sparse(source, 2))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_values_are_format_errors(token):
    with pytest.raises(DatasetFormatError, match="line 2"):
        list(read_dense(io.StringIO(f"1 2\n3 {token}\n")))
    with pytest.raises(DatasetFormatError, match="line 3"):
        list(read_sparse(io.StringIO(f"1:1.0\n\nx 2:{token}\n"), dim=4))


@pytest.mark.parametrize(
    "dim, text, error, message",
    [
        (0, "1:1.0\n", ValueError, "declared dimension must be positive"),
        (-2, "", ValueError, "declared dimension must be positive"),
        (4, "1:x\n", DatasetFormatError, "line 1: malformed token '1:x'"),
        (4, "1:1.0\nx:2.0\n", DatasetFormatError, "line 2: malformed token 'x:2.0'"),
        # Explicit zeros are dropped, but their indices still order the line.
        (4, "1:1.0\n1:0 1:5\n", DatasetFormatError, "line 2: indices must be strictly increasing"),
        (4, "1:1.0\n3:0 2:1\n", DatasetFormatError, "line 2: indices must be strictly increasing"),
        (4, "1:1.0\n2:1 3:0 3:4\n", DatasetFormatError, "line 2: indices must be strictly increasing"),
    ],
)
def test_read_sparse_refusals(dim, text, error, message):
    with pytest.raises(error, match=message):
        list(read_sparse(io.StringIO(text), dim=dim))
