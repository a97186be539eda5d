"""The one CSV table format that every command and report writes.

A table is a header row and equal-length columns.  Float columns are
written with 17 significant digits, so every double reads back bit for bit;
integer and boolean columns are written as whole numbers.  The header goes
through the csv module's writer; the body is numbers only, which that
writer never quotes, so each block of rows is formatted by one ``%``
template that writes what it would.  Every row ends in ``\\r\\n``.
"""

from __future__ import annotations

import csv
import io
from itertools import chain

import numpy as np

# rows are formatted a block at a time, so a long table is never held as text
_BLOCK = 4096


def write_table(out, header, columns) -> None:
    """Write ``header``, then one row per entry of ``columns``, to ``out``."""
    columns = [np.asarray(column) for column in columns]
    rows = max(map(len, columns), default=0)
    if any(len(column) != rows for column in columns):
        raise ValueError(f"columns of unequal length: {sorted(set(map(len, columns)))}")
    csv.writer(out).writerow(header)
    # "%d" takes the Python ints and bools that tolist() gives
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + "\r\n"
    for start in range(0, rows, _BLOCK):
        block = [column[start : start + _BLOCK].tolist() for column in columns]
        out.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def table_text(header, columns) -> str:
    """What :func:`write_table` writes, as a string."""
    buf = io.StringIO()
    write_table(buf, header, columns)
    return buf.getvalue()
