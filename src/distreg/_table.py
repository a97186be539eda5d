"""The one CSV table format that every command and report writes.

A table is a header row and equal-length columns.  Float columns are
written with 17 significant digits, so every double reads back bit for bit;
integer and boolean columns are written as whole numbers.  The header goes
through the csv module's writer; the body is numbers only, which that
writer never quotes, so each block of rows is formatted by one ``%``
template that writes what it would.  Every row ends in ``\\r\\n``.

A float64 column that repeats its values (a prediction's weights, or the
training responses that many queries share) has each distinct bit pattern
formatted once, and its cells are gathered from those strings.  Bit
patterns, not values, are compared, so ``-0.0`` and ``0.0`` keep their own
text and every NaN is formatted as it comes.  A column whose values are
mostly distinct is formatted cell by cell, which costs less than sorting
it for repeats it does not have.
"""

from __future__ import annotations

import csv
import io
from itertools import chain

import numpy as np

# rows are formatted a block at a time, so a long table is never held as text
_BLOCK = 4096


def _distinct_cells(column: np.ndarray):
    """The text of each distinct bit pattern of a float64 column and the
    index of each cell's text, or None when more than half the cells are
    distinct."""
    bits = column.view(np.int64)
    keys = np.sort(bits)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    if 2 * len(keys) > len(bits):
        return None
    text = "%.17g\n" * len(keys) % tuple(keys.view(np.float64).tolist())
    return np.array(text.split("\n")[:-1], dtype=object), np.searchsorted(keys, bits)


def write_table(out, header, columns) -> None:
    """Write ``header``, then one row per entry of ``columns``, to ``out``."""
    columns = [np.asarray(column) for column in columns]
    rows = max(map(len, columns), default=0)
    if any(len(column) != rows for column in columns):
        raise ValueError(f"columns of unequal length: {sorted(set(map(len, columns)))}")
    csv.writer(out).writerow(header)
    cells = [_distinct_cells(c) if c.dtype == np.float64 else None for c in columns]
    # "%d" takes the Python ints and bools that tolist() gives
    row = ",".join(
        "%d" if c.dtype.kind != "f" else "%.17g" if gathered is None else "%s"
        for c, gathered in zip(columns, cells)
    ) + "\r\n"
    for start in range(0, rows, _BLOCK):
        block = [
            column[start : start + _BLOCK].tolist()
            if gathered is None
            else gathered[0][gathered[1][start : start + _BLOCK]].tolist()
            for column, gathered in zip(columns, cells)
        ]
        out.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def table_text(header, columns) -> str:
    """What :func:`write_table` writes, as a string."""
    buf = io.StringIO()
    write_table(buf, header, columns)
    return buf.getvalue()
