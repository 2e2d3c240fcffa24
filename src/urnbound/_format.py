"""Deterministic serialization helpers.

All numbers written to CSV or JSON go through fmt(), which renders floats
with 17 significant digits so a rerun with the same seed produces
byte-identical files and every value round-trips exactly.  A file is
written to a temporary sibling and moved into place when complete, so a
write that fails leaves no partial artifact.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

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
        items = ",\n".join(inner + render_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"unsupported type for JSON output: {type(obj)!r}")


def columns(header: list[str], *cols) -> tuple[list[str], list[tuple]]:
    """(header, rows) from equal-length columns; arrays become plain
    Python scalars, which fmt() renders exactly as their numpy forms."""
    return header, list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                              for c in cols)))


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
    with _replacing(path) as fh:
        fh.write(render_json(obj))
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of scalars as CSV with '\\n' line endings; None is an
    empty cell."""
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                cell if isinstance(cell, str) else "" if cell is None
                else fmt(cell) for cell in row) + "\n")
