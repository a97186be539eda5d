"""The one CSV table writer: its exact bytes, and tables that read back
bit for bit, including the long format of ``distreg predict``."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distreg._table import _BLOCK, table_text, write_table
from distreg.cli import main
from distreg.regressor import Dataset, fit, predict_many
from distreg.weights import KernelScheme, KnnScheme

EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]


def read_back(text: str) -> tuple[list[str], np.ndarray]:
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    return header, np.array(rows, dtype=float)


class TestWriteTable:
    def test_golden_bytes(self):
        text = table_text(["n", "x", "flag"], [[1, 22], [0.1, -2.5], [True, False]])
        assert text == "n,x,flag\r\n1,0.10000000000000001,1\r\n22,-2.5,0\r\n"

    def test_edge_floats_read_back_bit_for_bit(self):
        text = table_text(["x"], [EDGE_FLOATS])
        assert text == (
            "x\r\n-0\r\n4.9406564584124654e-324\r\n1.7976931348623157e+308\r\n"
            "0.10000000000000001\r\n"
        )
        _, values = read_back(text)
        assert values[:, 0].tobytes() == np.array(EDGE_FLOATS).tobytes()

    def test_integer_columns_are_whole_numbers(self):
        cols = [np.array([0, -7, 2**40], dtype=np.int64), np.array([3, 4, 5], dtype=np.uint8)]
        assert table_text(["a", "b"], cols) == "a,b\r\n0,3\r\n-7,4\r\n1099511627776,5\r\n"

    def test_header_only(self):
        assert table_text(["a", "b"], [[], []]) == "a,b\r\n"

    def test_long_table_equals_row_by_row_formatting(self, rng):
        # longer than one formatting block, with a ragged last block
        ids = np.arange(10_007)
        xs = rng.standard_normal(10_007) * 10.0 ** rng.integers(-300, 300, 10_007)
        expected = "i,x\r\n" + "".join(f"{i},{x:.17g}\r\n" for i, x in zip(ids, xs))
        assert table_text(["i", "x"], [ids, xs]) == expected

    def test_file_bytes_equal_the_text(self, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as out:
            write_table(out, ["x"], [EDGE_FLOATS])
        assert path.read_bytes() == table_text(["x"], [EDGE_FLOATS]).encode()

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(ValueError):
            table_text(["a", "b"], [[1, 2], [0.5]])


def reference_text(header, columns) -> str:
    """The table through the csv module's writer, a cell at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    cells = [
        map("{:.17g}".format, c.tolist()) if c.dtype.kind == "f" else map(str, map(int, c.tolist()))
        for c in map(np.asarray, columns)
    ]
    writer.writerows(zip(*cells))
    return buf.getvalue()


INT64 = np.iinfo(np.int64)
EDGES = {
    "f": np.array([-0.0, 0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                   1e-300, 0.1, 1e16, 2.0**53 + 1, np.inf, np.nan]),
    "i": np.array([0, -1, 1, INT64.min, INT64.max, 2**53 + 1, -(2**62)], dtype=np.int64),
    "b": np.array([True, False]),
}


def drawn_column(rng, kind, rows):
    if kind == "f":
        # any bit pattern, or a normal value of any exponent
        bits = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
        scaled = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        values = np.where(rng.random(rows) < 0.5, bits, scaled)
    elif kind == "i":
        values = rng.integers(INT64.min, INT64.max, rows, dtype=np.int64, endpoint=True)
    else:
        values = rng.random(rows) < 0.5
    edge = rng.random(rows) < 0.25
    values[edge] = rng.choice(EDGES[kind], int(edge.sum()))
    return values


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from("fib"), min_size=1, max_size=4),
    rows=st.sampled_from([0, 1, 2, 17, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kinds=["i", "f", "b"], rows=0, seed=0)
@example(kinds=["f", "i", "b", "f"], rows=2 * _BLOCK + 5, seed=1)
def test_table_text_equals_the_csv_writer_cell_by_cell(kinds, rows, seed):
    rng = np.random.default_rng(seed)
    columns = [drawn_column(rng, kind, rows) for kind in kinds]
    header = [f"c{i}" for i in range(len(kinds))]
    # compared line by line, so a failure names the first bad row at once
    got = table_text(header, columns).splitlines(keepends=True)
    assert got == reference_text(header, columns).splitlines(keepends=True)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "flags, scheme",
    [(["knn", "--kappa", "5"], KnnScheme(kappa=5)),
     (["kernel", "--bandwidth", "0.3"], KernelScheme(bandwidth=0.3))],
    ids=["knn", "kernel"],
)
def test_predict_long_format_reads_back_bit_for_bit(tmp_path, capsys, d, flags, scheme):
    rng = np.random.default_rng(5)
    xs, ys, queries = rng.random((60, 1)), rng.standard_normal((60, d)), rng.random((7, 1))
    train, qfile = tmp_path / "train.csv", tmp_path / "q.csv"
    train.write_text(table_text(["x1"] + [f"y{i + 1}" for i in range(d)], [*xs.T, *ys.T]))
    qfile.write_text(table_text(["x1"], [queries[:, 0]]))
    rc = main(["predict", "--train", str(train), "--queries", str(qfile), "--scheme", *flags])
    assert rc == 0
    header, values = read_back(capsys.readouterr().out)
    assert header == ["query"] + [f"y{i + 1}" for i in range(d)] + ["weight"]
    batch = predict_many(fit(Dataset(xs, ys), scheme), queries)
    assert np.array_equal(values[:, 0], batch.rows)
    assert values[:, 1:-1].tobytes() == np.ascontiguousarray(batch.atoms).tobytes()
    assert values[:, -1].tobytes() == batch.weights.tobytes()
