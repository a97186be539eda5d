"""The one CSV table writer: its exact bytes, and tables that read back
bit for bit, including the long format of ``distreg predict``; and the
CSV reader's bulk path against its row-at-a-time parser."""

import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distreg._table import _BLOCK, _distinct_cells, table_text, write_table
from distreg.cli import DataError, _csv_table, _plain_table, _read_table, main
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

    def test_repeated_values_keep_their_bits(self, rng):
        # repeated values are formatted once per bit pattern: -0.0 is not 0.0
        rows = 3 * _BLOCK
        columns = [
            np.resize([0.0, -0.0], rows),
            np.full(rows, 0.1),
            np.resize(NANS, rows),
            rng.standard_normal(rows),
        ]
        assert [_distinct_cells(c) is None for c in columns] == [False, False, False, True]
        header = ["zero", "one", "nan", "distinct"]
        assert table_text(header, columns) == reference_text(header, columns)


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
# NaNs of either sign, quiet and signalling, with payloads
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                 0x7FF0000000000001, 0xFFF0000000000123], dtype=np.uint64).view(np.float64)


def any_floats(rng, rows):
    """Any bit pattern, or a normal value of any exponent."""
    bits = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    return np.where(rng.random(rows) < 0.5, bits, scaled)


def drawn_column(rng, kind, rows):
    """A column of ``kind``: "f" floats, mostly distinct; "r" floats drawn
    from 1 to 8 values, among them -0.0, 0.0 and NaNs, so heavily repeated;
    "s" floats drawn from a pool of a quarter to all of ``rows`` values, so
    about as many distinct values as the writer's choice between its two
    float paths turns on; "i" integers; "b" booleans."""
    if kind == "f":
        values = any_floats(rng, rows)
    elif kind in "rs":
        size = rng.integers(1, 9) if kind == "r" else rng.integers(rows // 4, rows + 1) + 1
        pool = np.concatenate(([-0.0, 0.0], NANS, any_floats(rng, size)))
        pool = rng.choice(pool, size, replace=False)
        return pool[rng.integers(0, size, rows)]
    elif kind == "i":
        values = rng.integers(INT64.min, INT64.max, rows, dtype=np.int64, endpoint=True)
    else:
        values = rng.random(rows) < 0.5
    edge = rng.random(rows) < 0.25
    values[edge] = rng.choice(EDGES[kind], int(edge.sum()))
    return values


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from("frsib"), min_size=1, max_size=4),
    rows=st.sampled_from([0, 1, 2, 17, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kinds=["i", "f", "b"], rows=0, seed=0)
@example(kinds=["f", "i", "b", "f"], rows=2 * _BLOCK + 5, seed=1)
@example(kinds=["i", "r", "s", "r"], rows=2 * _BLOCK + 5, seed=2)
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


# ---------------------------------------------------------------------------
# Reading: the bulk path of plain texts against the csv module's reader


def read_outcome(read):
    """The header and the bits of the table ``read()`` returns, or the
    message of the DataError it raises."""
    try:
        header, values = read()
    except DataError as exc:
        return str(exc)
    return header, values.shape, values.tobytes()


def both_readers(text: str):
    """What the reader makes of ``text`` in a file, and what the row parser
    alone makes of it; the expected header is the one the file has."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        got = read_outcome(lambda: _read_table(path, lambda h: h, "c", "rows"))
    want = read_outcome(lambda: _csv_table(path, text, lambda h: h, "c", "rows"))
    return got, want


TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_000", "٣", " 1 ", "\x0c2\x0b", "", " ", "nan", "-inf",
                     "1e400", "-0", "0x10", "+.5", "x", '"1"', '"1,2"', "1\x00"]),
)


@st.composite
def csv_texts(draw):
    """A header of 1-3 columns and rows of numbers, some of them not
    numbers, with lines of the wrong width, blank lines and every line
    ending the csv reader knows."""
    width = draw(st.integers(1, 3))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    endings = st.one_of(st.just(ending), st.sampled_from(["\n", "\r\n", "\r"]))
    text = ",".join(f"c{i}" for i in range(width)) + draw(endings)
    plain = draw(st.booleans())
    for _ in range(draw(st.integers(0, 6))):
        if plain:
            cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                                  .map(repr), min_size=width, max_size=width))
        else:
            cells = draw(st.lists(TOKENS, min_size=max(width - 1, 0), max_size=width + 1))
        text += ",".join(cells) + draw(endings)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


PINNED_TEXTS = {
    "ragged rows whose token count fits": "y1,weight\n1,2,3\n4\n",
    "blank line": "y1,weight\n1,2\n\n3,4\n",
    "whitespace-only line": "y1\n1\n \n2\n",
    "crlf": "y1,weight\r\n1,2\r\n3,4\r\n",
    "crlf, no final ending": "y1,weight\r\n1,2\r\n3,4",
    "lone cr": "y1,weight\r1,2\r3,4\r",
    "cr among crlf": "y1,weight\r\n1,2\r3,4\r\n",
    "quoted field": 'y1,weight\n"1",2\n',
    "quoted comma": 'y1,weight\n"1,5",2\n',
    "underscore": "y1,weight\n1_000,2\n",
    "non-ascii digit": "y1,weight\n٣,2\n",
    "long field": "y1,weight\n0,0.5\n" + "1" * 200_000 + ",0.5\n",
    "long finite field": "y1,weight\n0,0.5\n1." + "0" * 200_000 + ",0.5\n",
    "field at the csv limit": "y1\n1." + "0" * (csv.field_size_limit() - 2) + "\n",
    "nan": "y1,weight\n0,0.5\nnan,0.5\n",
    "inf": "y1,weight\n0,0.5\n1,inf\n",
    "overflow": "y1,weight\n0,0.5\n1e400,0.5\n",
    "header only": "y1,weight\n",
    "header only, no ending": "y1,weight",
    "empty": "",
    "only line endings": "\n\n",
}


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_bulk_path_equals_the_row_parser(text):
    got, want = both_readers(text)
    assert got == want


@pytest.mark.parametrize("text", PINNED_TEXTS.values(), ids=PINNED_TEXTS.keys())
def test_pinned_texts_read_as_the_row_parser_reads_them(text):
    got, want = both_readers(text)
    assert got == want


@pytest.mark.parametrize("name", ["crlf", "crlf, no final ending", "underscore"])
def test_plain_texts_take_the_bulk_path(name):
    header, values = _plain_table(PINNED_TEXTS[name])
    assert header == ["y1", "weight"] and np.isfinite(values).all()


@pytest.mark.parametrize(
    "name",
    ["ragged rows whose token count fits", "blank line", "whitespace-only line", "lone cr",
     "cr among crlf", "quoted field", "non-ascii digit", "long field",
     "long finite field", "field at the csv limit", "nan", "inf", "header only", "empty"],
)
def test_other_texts_go_to_the_row_parser(name):
    assert _plain_table(PINNED_TEXTS[name]) is None
