"""The one CSV table writer: its exact bytes, and tables that read back
bit for bit, including the long format of ``distreg predict``."""

import csv
import io

import numpy as np
import pytest

from distreg._table import table_text, write_table
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
