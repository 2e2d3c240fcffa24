"""Deterministic serialization helpers.

Every number is written with the digits fmt() gives it: floats at 17
significant digits (`format(x, '.17g')`), so a rerun with the same seed
produces byte-identical files and every value round-trips exactly.
Scalars and reports go through fmt() one value at a time.  A table is
held as its columns (Rows, read row by row, never indexed).  A table,
and a float list or array inside render_json(), is rendered _BLOCK_ROWS
rows or items at a time by _block_text: each cell gets a fixed-width
slot of NUL-padded bytes in numpy, the slots are laid out between the
constant text of a row (commas or a JSON row's keys), the NULs are
dropped and the block is written at once.  An int column takes `%d`'s
digits, made by the float path's digit words (_digit_words).  A column
of fewer than _FEW_CELLS cells in the block, a string or None cell, and
a row above the first cell of a short column take their fmt() (CSV) or
render_json() text cell by cell.

_float_text gives a double fmt()'s text in float64 arithmetic, exactly,
when 1e-220 <= |x| <= 1e250.  With e10 = floor(log10 |x|) and
q = 16 - e10, hi + lo is 10^q as a double-double built from Python ints
(hi correctly rounded, lo the rounded rest), and Veltkamp's split gives
Dekker's exact product |x| * hi = p + err.  Then t = err + |x| * lo and
y = |x| * 10^q = p + t within 2^-47: once y is in its decade |t| < 32,
so the two roundings in t cost at most 2^-50 + 2^-49, and lo carries
10^q to 2^-106 relative, at most 2^-49 on y < 1e17.  The domain keeps
every product and split clear of overflow and of the subnormals.  log10
can miss e10 by one next to a power of ten, so the decade is fixed
exactly from (p, t), by comparing t with the differences 1e16 - p and
1e17 - p, which are exact where it matters (Sterbenz); never from
fl(p + t), which rounds up to 1e17 from below.  The 17 digits are then
D = p + floor(t) + [frac(t) > 0.5], the correct rounding of y, unless
frac(t) is within 2^-40 of 1/2: there the error in t could decide, and
an exact tie must round to even.  Those values, subnormals and values
outside the domain go to fmt() one by one; a zero takes the slot of 1
with D = 0, so its text is 0 or -0.  D = 10^17 moves up a decade.  The
text is %g's: fixed notation for -4 <= e10 < 17, else d.ddd...e+XX,
trailing zeros dropped.  A float column is checked with np.isfinite,
where fmt() checks each value.

A write holds one block's slots and text, never a whole column's, so the
peak memory of a run follows its numpy arrays.  A file is written to a
temporary sibling and moved into place when complete, so a write that
fails, in any block, leaves no partial artifact.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from functools import cache
from typing import NamedTuple

import numpy as np

# Table rows or float-list items rendered at a time.  A block's slots and
# its text are held at once: 4,096 rows of a 5-column JSON float table
# take 1.3 MB of slots, and the same again while the NULs are dropped.
_BLOCK_ROWS = 4096
# A column of a block, or a float list, shorter than this is rendered cell
# by cell with fmt(): faster below about 50 cells (the numpy path costs
# ~0.15 ms a call), and a run that writes only short ones never pages in
# the ~1.2 MiB of numpy code the numpy path runs.
_FEW_CELLS = 64

_FAST_MIN, _FAST_MAX = 1e-220, 1e250   # |x| rendered without fmt()
_TIE_WINDOW = 2.0 ** -40               # |frac(t) - 1/2| sent to fmt()
_SPLIT = 2.0 ** 27 + 1                 # Veltkamp's splitting constant
_E_MIN, _E_MAX = -224, 254             # decades tabulated, around the domain's
_ASCII = 0x3030303030303030            # "0" in each byte of a digit word
# 10, ..., 10^19, from ints: a numpy power would page in code at import
_TENS = np.array([10 ** j for j in range(1, 20)], np.uint64)
# The slot of one float: sign, the "0." and zeros before the digits, the
# first digit and two words of eight digits before the point, the point,
# two words after it, and the exponent in a word of its own.
_FLOAT_WIDTH = 1 + 5 + 17 + 1 + 16 + 8


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


class _Decades(NamedTuple):
    """Per decimal exponent e (index e - _E_MIN): 10^(16 - e) as the
    double-double hi + lo, hi split into hh + hl, and the %g layout of 17
    digits: the text before them and after them (NUL-padded words), how
    many digits precede the point at most (17: no point) and how many are
    kept even when zero.  Per digit count k = 0..17: the bytes of the
    head word (digits 1-8) and of the tail word (digits 9-16) that come
    before digit k."""
    hi: np.ndarray
    hh: np.ndarray
    hl: np.ndarray
    lo: np.ndarray
    prefix: np.ndarray
    suffix: np.ndarray
    split: np.ndarray
    whole: np.ndarray
    head: np.ndarray
    tail: np.ndarray


@cache
def _decades() -> _Decades:
    """The table, built from exact integers when a float column first
    takes the numpy path."""
    cols = {name: [] for name in _Decades._fields[:-2]}
    for e in range(_E_MIN, _E_MAX + 1):
        q = 16 - e
        if q >= 0:
            hi = float(10 ** q)
            lo = float(10 ** q - int(hi))
        else:
            hi = 1 / 10 ** -q    # int / int is correctly rounded
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -q) / (den * 10 ** -q)
        c = _SPLIT * hi
        hh = c - (c - hi)
        fixed = -4 <= e < 17
        for name, v in zip(_Decades._fields, (
                hi, hh, hi - hh, lo,
                "0." + "0" * (-e - 1) if fixed and e < 0 else "",
                "" if fixed else "e%+03d" % e,
                e + 1 if fixed and e >= 0 else 1 if not fixed else 17,
                e + 1 if fixed and e >= 0 else 0)):
            cols[name].append(v)
    for k in ("prefix", "suffix"):
        cols[k] = np.array(cols[k], "S8").view(np.uint64)
    for k, first in (("head", 1), ("tail", 9)):
        cols[k] = np.array([(1 << 8 * min(max(c - first, 0), 8)) - 1
                            for c in range(18)], np.uint64)
    return _Decades(**{k: np.asarray(v) for k, v in cols.items()})


def _scaled(ax, e, dec: _Decades):
    """(p, t) with ax * 10^(16 - e) = p + t within 2^-47: p = fl(ax * hi),
    t its exact remainder (Dekker's product) plus ax * lo."""
    i = e - _E_MIN
    hi, hh, hl = dec.hi[i], dec.hh[i], dec.hl[i]
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    p = ax * hi
    t = al * hl - (((p - ah * hh) - al * hh) - ah * hl) + ax * dec.lo[i]
    return p, t


def _digit_words(v) -> np.ndarray:
    """The 8 decimal digits of each v < 10^8 (uint64) as the bytes of one
    word, first digit first in memory: two lanes of 4 digits, four of 2,
    eight of 1, each split by a multiply-shift exact over its range."""
    a = v // 10000
    v = a | (v - a * 10000) << 32
    a = (v * 5243) >> 19 & 0x0000007F0000007F         # y // 100, y < 10^4
    v = a | (v - a * 100) << 16
    a = (v * 103) >> 10 & 0x000F000F000F000F          # z // 10, z < 100
    return a | (v - a * 10) << 8


def _float_text(x, out) -> None:
    """Write fmt() of each finite double of x into the rows of out, a
    (n, _FLOAT_WIDTH) uint8 view, NUL where no character goes."""
    dec = _decades()
    n = x.size
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    ax[~fast] = 1.0      # log10 and the split see in-domain values only
    fast |= zero
    e = np.floor(np.log10(ax)).astype(np.intp)
    p, t = _scaled(ax, e, dec)
    # y = p + t must lie in [1e16, 1e17); both differences are exact
    # where the comparison is close, by Sterbenz's lemma
    step = (t >= 1e17 - p).astype(np.intp) - (t < 1e16 - p)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        p[moved], t[moved] = _scaled(ax[moved], e[moved], dec)
    whole = np.floor(t)
    frac = t - whole
    fast &= np.abs(frac - 0.5) >= _TIE_WINDOW
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    d[zero] = 0
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    i = e - _E_MIN
    first = d // 10 ** 16
    rest = (d - first * 10 ** 16).view(np.uint64)
    words = np.empty(2 * n, np.uint64)
    words[:n] = rest // 10 ** 8
    words[n:] = rest - words[:n] * 10 ** 8
    words = _digit_words(words)
    # digits shown: up to the last non-zero one, or the integer part
    used = (np.frexp(words.astype(np.float64))[1] + 7) // 8
    shown = np.where(used[n:] > 0, 9 + used[n:], 1 + used[:n])
    shown = np.maximum(shown, dec.whole[i])
    split = np.minimum(dec.split[i], shown)
    words += _ASCII
    # one unaligned word store per field, left to right: each store's
    # spare high bytes are overwritten by the next field's
    for col, word in (
            (0, np.signbit(x) * np.uint64(ord("-")) | dec.prefix[i] << 8
             | (first.view(np.uint64) + ord("0")) << 48),
            (7, words[:n] & dec.head[split]),
            (15, words[n:] & dec.tail[split]),
            (24, words[:n] & (dec.head[shown] ^ dec.head[split])),
            (32, words[n:] & (dec.tail[shown] ^ dec.tail[split])),
            (40, dec.suffix[i])):
        out[:, col:col + 8].view(np.uint64)[:, 0] = word
    out[:, 23] = (shown > split) * ord(".")
    for k in np.flatnonzero(~fast):
        text = fmt(x[k]).encode()
        out[k] = 0
        out[k, :len(text)] = np.frombuffer(text, np.uint8)


def _int_text(k) -> np.ndarray:
    """(n, w) uint8: the %d text of each integer of k, NUL-padded."""
    mag = k.astype(np.uint64)      # |k| below, exact for -2^63 too
    neg = k < 0
    mag[neg] = 0 - mag[neg]
    size = 1 + np.searchsorted(_TENS, mag, "right")     # digits of |k|
    width = int(size.max())
    words = np.stack([mag // 10 ** (8 * j) % 10 ** 8
                      for j in range((width - 1) // 8, -1, -1)], axis=1)
    digits = _digit_words(words).view(np.uint8)[:, -width:]
    out = np.empty((k.size, width + 1), np.uint8)
    out[:, 0] = neg * ord("-")
    out[:, 1:] = ((digits + ord("0"))    # leading zeros are NULs
                  * (np.arange(width) >= width - size[:, None]))
    return out


def _cells(col, cell):
    """What renders one column of a block: its float64 values, which
    _float_text writes in place, or the (n, w) uint8 text of each cell."""
    if isinstance(col, range) and len(col) >= _FEW_CELLS:
        # np.asarray would read the range one Python int at a time
        col = np.arange(col.start, col.stop, col.step)
    array = isinstance(col, np.ndarray)
    if len(col) >= _FEW_CELLS and array and col.dtype.kind == "f":
        finite = np.isfinite(col)
        if not finite.all():
            raise ValueError("non-finite value in output: "
                             f"{float(col[~finite][0])!r}")
        return col.astype(np.float64, copy=False)
    if len(col) >= _FEW_CELLS and array and col.dtype.kind in "iu":
        return _int_text(col)
    text = np.array([cell(v).encode() for v in col], bytes)
    return text.view(np.uint8).reshape(len(text), -1)


def _block_text(parts, n: int) -> bytes:
    """The UTF-8 text of n rows, each the parts in order: constant strings
    and the _cells() of columns."""
    parts = [np.frombuffer(p.encode(), np.uint8) if isinstance(p, str)
             else p for p in parts]
    widths = [_FLOAT_WIDTH if p.dtype.kind == "f" else p.shape[-1]
              for p in parts]
    buf = bytearray(n * sum(widths))
    rows = np.frombuffer(buf, np.uint8).reshape(n, -1)
    pos = 0
    for part, w in zip(parts, widths):
        if part.dtype.kind == "f":
            _float_text(part, rows[:, pos:pos + w])
        else:
            rows[:, pos:pos + w] = part
        pos += w
    del rows
    return buf.translate(None, b"\0")


def render_json(obj, indent: int = 0) -> str:
    """JSON with sorted keys and fmt()-formatted numbers: the text
    write_json() writes, as a string.

    Only the types that appear in our reports are supported: dict, list,
    tuple, numpy arrays, strings, numbers, booleans and None.
    """
    parts = []
    _dump(parts.append, obj, indent)
    return "".join(parts)


def _dump(write, obj, indent: int) -> None:
    """Pass the JSON text of obj to write, piece by piece.  A float list
    or float array goes out _BLOCK_ROWS items at a time (_block_text), so
    it is never converted to Python floats or text as a whole."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None or isinstance(obj, str):
        write(json.dumps(obj))
        return
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        write(fmt(obj))
        return
    if isinstance(obj, np.ndarray) and (obj.ndim != 1
                                        or obj.dtype.kind != "f"):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            write("[]")
            return
        lead, sep = "[\n" + inner, ",\n" + inner
        if isinstance(obj, np.ndarray) or all(type(v) is float for v in obj):
            for start in range(0, len(obj), _BLOCK_ROWS):
                block = np.asarray(obj[start:start + _BLOCK_ROWS])
                text = _block_text([sep, _cells(block, fmt)], len(block))
                write(lead + text[len(sep):].decode())
                lead = sep
        else:
            for v in obj:
                write(lead)
                _dump(write, v, indent + 1)
                lead = sep
        write("\n" + pad + "]")
        return
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        lead = "{\n"
        for k, v in sorted(obj.items()):
            write(f"{lead}{inner}{json.dumps(str(k))}: ")
            _dump(write, v, indent + 1)
            lead = ",\n"
        write("\n" + pad + "}")
        return
    raise TypeError(f"unsupported type for JSON output: {type(obj)!r}")


def _head(col, n: int, stop: int) -> list:
    """Rows 0 .. stop - 1 of a column of an n-row table, as Python
    scalars: None above the column's first cell."""
    cells = col[:max(stop - n + len(col), 0)]
    cells = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
    return [None] * min(n - len(col), stop) + cells


class Rows:
    """The rows of a table, held as its columns: numpy arrays, ranges or
    lists.  A column shorter than the table lacks its leading cells,
    which read as None.  Iterating gives each row as a tuple of Python
    scalars; rows are not indexed."""

    def __init__(self, cols):
        self.columns = tuple(cols)
        self._len = max(map(len, self.columns), default=0)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return zip(*(_head(c, self._len, self._len) for c in self.columns))


class Table(NamedTuple):
    header: list[str]
    rows: Rows


def columns(header: list[str], *cols) -> Table:
    """A table from its columns; see Rows."""
    return Table(list(header), Rows(cols))


def _csv_cell(x) -> str:
    return x if isinstance(x, str) else "" if x is None else fmt(x)


def _write_rows(fh, header, rows: Rows, as_json: bool) -> None:
    """Stream a table as CSV, or as render_json() of a list of one object
    per row, one _block_text per block of _BLOCK_ROWS rows.  The rows
    that lack a cell (the head, above the first cell of the shortest
    column) make a block of their own, of cells rendered one by one."""
    n, cols = len(rows), rows.columns
    cell, opening, closing = _csv_cell, ",".join(header) + "\n", ""
    lits, sep, empty = [""] + [","] * (len(cols) - 1) + ["\n"], "", opening
    if as_json:
        order = sorted(range(len(header)), key=header.__getitem__)
        cols, cell, sep = [cols[j] for j in order], render_json, ",\n"
        lits = [(",\n  {\n" if j == 0 else ",\n")
                + f"    {json.dumps(str(header[k]))}: "
                for j, k in enumerate(order)] + ["\n  }"]
        opening, closing, empty = "[\n", "\n]\n", "[]\n"
    if not n:
        fh.write(empty.encode())
        return
    head = n - min(map(len, cols))
    for lo in [0] * (head > 0) + list(range(head, n, _BLOCK_ROWS)):
        hi = head if lo < head else min(lo + _BLOCK_ROWS, n)
        block = ([_head(c, n, head) for c in cols] if lo < head
                 else (c[len(c) - n + lo:len(c) - n + hi] for c in cols))
        parts = [lits[0]]
        for col, lit in zip(block, lits[1:]):
            parts += [_cells(col, cell), lit]
        text = _block_text(parts, hi - lo)
        if lo == 0:
            fh.write(opening.encode())
            text = memoryview(text)[len(sep):]
        fh.write(text)
        del text        # before the next block renders
    fh.write(closing.encode())


@contextmanager
def _replacing(path):
    """Open a sibling temporary file for writing bytes (text is UTF-8)
    and move it onto `path`
    only once it is complete, so a failed write leaves no partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
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
            _dump(lambda text: fh.write(text.encode()), obj, 0)
            fh.write(b"\n")


def write_csv(path, header: list[str], rows: Rows) -> None:
    """Write the rows of a columns() table as CSV with '\\n' line endings;
    None is an empty cell."""
    with _replacing(path) as fh:
        _write_rows(fh, header, rows, as_json=False)
