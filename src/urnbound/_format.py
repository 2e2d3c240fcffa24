"""Deterministic serialization helpers.

Every number is written with the digits fmt() gives it: floats at 17
significant digits, so a rerun with the same seed produces byte-identical
files and every value round-trips exactly.  Scalars and reports go
through fmt() one value at a time.  A table is held as its columns
(Rows) and each of its rows is rendered by one `%` template, built once
from the column types: `%.17g` for a float column, `%d` for an int column
or a range.  Both are bit-equal to fmt(): `'%.17g' % x` and
`format(x, '.17g')` make the same PyOS_double_to_string call for a
double, and `'%d' % k == str(k)` for a Python int.  A float column is
checked once with np.isfinite, where fmt() checks each value.  The cells
no column template covers (strings, None) still go through fmt() one by
one.  render_json() writes a list of Python floats the same way, with
one `%.17g` template and one finiteness check for the whole list.  A
file is written to a temporary sibling and moved into place when
complete, so a write that fails leaves no partial artifact.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import chain
from typing import NamedTuple

import numpy as np


def fmt(x) -> str:
    """Render a scalar for CSV/JSON output (floats at 17 significant digits)."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value in output: {x!r}")
        return format(x, ".17g")
    raise TypeError(f"unsupported scalar type: {type(x)!r}")


def render_json(obj, indent: int = 0) -> str:
    """JSON with sorted keys and fmt()-formatted numbers.

    Only the types that appear in our reports are supported: dict, list,
    tuple, numpy arrays, strings, numbers, booleans and None.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return fmt(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            # fmt()'s bytes from one template, finiteness checked once;
            # fmt() raises on the first non-finite value
            if not all(map(math.isfinite, obj)):
                fmt(next(v for v in obj if not math.isfinite(v)))
            items = map("%.17g".__mod__, obj)
        else:
            items = (render_json(v, indent + 1) for v in obj)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"unsupported type for JSON output: {type(obj)!r}")


class Rows(Sequence):
    """The rows of a table, held as its columns: numpy arrays, ranges or
    lists.  A column shorter than the table lacks its leading cells,
    which read as None.  A row is a tuple of Python scalars."""

    def __init__(self, cols):
        self.columns = tuple(cols)
        self._len = max(map(len, self.columns), default=0)

    def __len__(self) -> int:
        return self._len

    def _cells(self, col) -> list:
        cells = col.tolist() if isinstance(col, np.ndarray) else list(col)
        return [None] * (self._len - len(col)) + cells

    def __iter__(self):
        return zip(*map(self._cells, self.columns))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(self._len)[i]
        row = []
        for col in self.columns:
            k = i - (self._len - len(col))
            cell = None if k < 0 else col[k]
            row.append(cell.item() if isinstance(cell, np.generic) else cell)
        return tuple(row)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            row == tuple(o) for row, o in zip(self, other))


class Table(NamedTuple):
    header: list[str]
    rows: Rows


def columns(header: list[str], *cols) -> Table:
    """A table from its columns; see Rows."""
    return Table(list(header), Rows(cols))


def _csv_cell(x) -> str:
    return x if isinstance(x, str) else "" if x is None else fmt(x)


def _column(col, cell):
    """(template slot, values) that render one column."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        finite = np.isfinite(col)
        if not finite.all():
            raise ValueError("non-finite value in output: "
                             f"{float(col[~finite][0])!r}")
        return "%.17g", col.tolist()
    if isinstance(col, range):
        return "%d", col
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return "%d", col.tolist()
    return "%s", map(cell, col)


def _template(keys, slots) -> str:
    """The % template of one row: a CSV line or, given the JSON keys, the
    object render_json() writes for a row of a list, after the ',\\n'
    that follows the row before it."""
    if keys is None:
        return ",".join(slots) + "\n"
    return ",\n  {\n" + ",\n".join(
        f"    {k}: {s}" for k, s in zip(keys, slots)) + "\n  }"


def _write_rows(fh, header, rows: Rows, as_json: bool) -> None:
    """Stream a table as CSV, or as render_json() of a list of one object
    per row.  Rows that lack a cell (the head, above the first cell of
    the shortest column) are rendered cell by cell, all others by one
    template."""
    n, cols, keys, sep = len(rows), rows.columns, None, ""
    cell, opening, closing = _csv_cell, ",".join(header) + "\n", ""
    empty = opening
    if as_json:
        order = sorted(range(len(header)), key=header.__getitem__)
        keys = [json.dumps(str(header[j])).replace("%", "%%") for j in order]
        rows = Rows(cols[j] for j in order)
        cols, sep, cell = rows.columns, ",\n", render_json
        opening, closing, empty = "[\n", "\n]\n", "[]\n"
    head = n - min(map(len, cols), default=n)
    body = [_column(c[len(c) - (n - head):], cell) for c in cols]
    by_cell = _template(keys, ["%s"] * len(cols))
    lines = chain(
        (by_cell % tuple(map(cell, rows[i])) for i in range(head)),
        map(_template(keys, [slot for slot, _ in body]).__mod__,
            zip(*(values for _, values in body))))
    first = next(lines, None)
    if first is None:
        fh.write(empty)
        return
    fh.write(opening + first[len(sep):])
    fh.writelines(lines)
    fh.write(closing)


@contextmanager
def _replacing(path):
    """Open a sibling temporary file for writing and move it onto `path`
    only once it is complete, so a failed write leaves no partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path, obj) -> None:
    """Write render_json(obj); a Table becomes a list of one object per
    row."""
    with _replacing(path) as fh:
        if isinstance(obj, Table):
            _write_rows(fh, *obj, as_json=True)
        else:
            fh.write(render_json(obj))
            fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """Write Rows, or any sequence of rows of scalars, as CSV with '\\n'
    line endings; None is an empty cell."""
    if not isinstance(rows, Rows):
        rows = Rows(list(zip(*rows)))
    with _replacing(path) as fh:
        _write_rows(fh, header, rows, as_json=False)
