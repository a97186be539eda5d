"""The one CSV table format that every command and report writes.

A table is a header row and equal-length columns.  Float columns are
written with 17 significant digits, so every double reads back bit for bit;
integer and boolean columns are written as ``str(int)``.  Rows go through
the csv module's writer, so they end in ``\\r\\n``.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# rows are formatted a block at a time, so a long table is never held as text
_BLOCK = 4096


def _cells(column: np.ndarray):
    values = column.tolist()
    if column.dtype.kind == "f":
        return map("{:.17g}".format, values)
    return map(str, map(int, values))


def write_table(out, header, columns) -> None:
    """Write ``header``, then one row per entry of ``columns``, to ``out``."""
    columns = [np.asarray(column) for column in columns]
    writer = csv.writer(out)
    writer.writerow(header)
    for start in range(0, max(map(len, columns), default=0), _BLOCK):
        block = [_cells(column[start : start + _BLOCK]) for column in columns]
        writer.writerows(zip(*block, strict=True))


def table_text(header, columns) -> str:
    """What :func:`write_table` writes, as a string."""
    buf = io.StringIO()
    write_table(buf, header, columns)
    return buf.getvalue()
