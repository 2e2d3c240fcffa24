"""Table rendering: what columns() tables write, checked cell by cell
against fmt()."""
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urnbound import _format
from urnbound._format import columns, fmt, render_json, write_csv, write_json

# Values where shortest-repr and 17-digit rendering are easiest to get
# wrong: signed zeros, subnormals, integers past 2**53, |x| >= 1e16.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
           -1e16, 2.0 ** 53 + 1, 1e-300, 0.1, 1 / 3, 1.7976931348623157e308,
           123456789012345678.0]

FLOATS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL),
).filter(np.isfinite)
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def numeric_columns(draw):
    """One to five float64 or int64 columns of a common length."""
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from([np.float64, np.int64]),
                          min_size=1, max_size=5))
    return [np.array(draw(st.lists(FLOATS if kind is np.float64 else INTS,
                                   min_size=n, max_size=n)), dtype=kind)
            for kind in kinds]


def _written(write, name, *args) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        write(path, *args)
        with open(path) as fh:
            return fh.read()


@settings(max_examples=300, deadline=None)
@given(numeric_columns())
def test_csv_lines_match_fmt_of_every_cell(cols):
    header = [f"c{j}" for j in range(len(cols))]
    text = _written(write_csv, "t.csv", *columns(header, *cols))
    assert text.splitlines() == [",".join(header)] + [
        ",".join(fmt(x) for x in row) for row in zip(*cols)]


@settings(max_examples=300, deadline=None)
@given(numeric_columns(), st.booleans())
def test_json_rows_match_render_json_of_row_objects(cols, short):
    # keys out of sorted order; a short last column leaves row 0 a null
    header = [f"c{len(cols) - j}" for j in range(len(cols))]
    if short and len(cols[-1]):
        cols[-1] = cols[-1][1:]
    n = max(map(len, cols))
    cells = [[None] * (n - len(c)) + c.tolist() for c in cols]
    expected = render_json([dict(zip(header, row)) for row in zip(*cells)])
    text = _written(write_json, "t.json", columns(header, *cols))
    assert text == expected + "\n"


def _render_items(obj, indent):
    """render_json() of a list, one item at a time."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    return "[\n" + ",\n".join(inner + render_json(v, indent + 1)
                               for v in obj) + "\n" + pad + "]"


LIST_SPECIAL = SPECIAL + [9.999999999999998e16, 2.5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(FLOATS, st.sampled_from(LIST_SPECIAL)),
                min_size=1, max_size=20),
       st.integers(0, 3))
def test_float_list_renders_like_each_item(values, indent):
    assert render_json(values, indent) == _render_items(values, indent)
    assert render_json(np.array(values), indent) == _render_items(values,
                                                                  indent)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 30])
def test_blocks_join_seamlessly(monkeypatch, n):
    # seven rows or items a block: every block edge and a partial last
    # block, checked against fmt() of each cell and each item
    monkeypatch.setattr(_format, "_BLOCK_ROWS", 7)
    x = np.linspace(-1.0, 2.0, n) / 3
    k = np.arange(n, dtype=np.int64) * -7
    header, short = ["x", "k", "d"], np.arange(max(n - 1, 0))
    assert _written(write_csv, "t.csv", *columns(header, x, k, short)) == (
        "x,k,d\n" + "".join(
            f"{fmt(a)},{fmt(b)},{'' if i == 0 else fmt(short[i - 1])}\n"
            for i, (a, b) in enumerate(zip(x, k))))
    cells = [dict(zip(header, (a, b, None if i == 0 else short[i - 1])))
             for i, (a, b) in enumerate(zip(x.tolist(), k.tolist()))]
    assert _written(write_json, "t.json", columns(header, x, k, short)) == (
        render_json(cells) + "\n")
    for values in (x, x.tolist()):
        assert render_json(values, 1) == (_render_items(x.tolist(), 1)
                                          if n else "[]")


@pytest.mark.parametrize("values", [
    [1, 2.5, True], [2.5, None, -0.0], [np.float64(0.1), 0.2],
    [2.5, [1.0, -0.0]], [0.5, "x"], [2.0 ** 53 + 1, 1],
])
def test_mixed_list_renders_like_each_item(values):
    assert render_json(values, 1) == _render_items(values, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_in_a_list_fails(bad):
    for values in ([bad], [1.0, bad, 2.0], [1.0, 2.0, bad]):
        with pytest.raises(ValueError,
                           match=f"non-finite value in output: {bad}"):
            render_json(values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_non_finite_column_fails_the_table_write(tmp_path, bad, suffix):
    values = np.arange(10.0)
    values[5] = bad
    table = columns(["time", "x", "draw"], range(10), values, np.arange(9))
    path = tmp_path / f"t.{suffix}"

    def write():
        if suffix == "json":
            write_json(str(path), table)
        else:
            write_csv(str(path), *table)

    with pytest.raises(ValueError, match=f"non-finite value in output: {bad}"):
        write()
    assert list(tmp_path.iterdir()) == []  # no artifact, no temporary
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=f"non-finite value in output: {bad}"):
        write()
    assert path.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind", ["csv", "json", "list", "array"])
def test_non_finite_value_in_a_late_block_leaves_no_file(tmp_path, kind):
    # at item 20,000 the first blocks are already written when it fails
    values = np.arange(30_000.0)
    values[20_000] = np.nan
    path = str(tmp_path / "t")
    with pytest.raises(ValueError, match="non-finite value in output: nan"):
        if kind == "csv":
            write_csv(path, *columns(["x"], values))
        elif kind == "json":
            write_json(path, columns(["x"], values))
        else:
            write_json(path, {"n": 3, "values": values if kind == "array"
                              else values.tolist()})
    assert list(tmp_path.iterdir()) == []  # no artifact, no temporary


def test_writers_hold_one_block_not_the_whole_column(tmp_path):
    # the text and Python floats of a 10^5-row table (or a 2^18-item
    # array) take over 15 MiB; the writers hold one block of each
    rng = np.random.default_rng(0)
    table = columns([f"c{j}" for j in range(5)],
                    *rng.standard_normal((5, 100_000)))
    profile = {"n": 1 << 18, "increment_bounds": rng.random(1 << 18)}
    writes = [lambda: write_csv(str(tmp_path / "t.csv"), *table),
              lambda: write_json(str(tmp_path / "t.json"), table),
              lambda: write_json(str(tmp_path / "b.json"), profile)]
    for write in writes:
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def test_rows_read_as_python_scalars():
    header, rows = columns(["time", "x", "draw"], range(3),
                           np.array([0.5, 1.0, 2.0]), np.array([2, 0]))
    assert header == ["time", "x", "draw"]
    assert len(rows) == 3
    assert rows[0] == (0, 0.5, None) and rows[-1] == (2, 2.0, 0)
    assert type(rows[1][1]) is float and type(rows[1][2]) is int
    assert rows[1:] == [(1, 1.0, 2), (2, 2.0, 0)]
    assert rows == [[0, 0.5, None], [1, 1.0, 2], [2, 2.0, 0]]
    assert list(rows) == rows[:]
    with pytest.raises(IndexError):
        rows[3]
