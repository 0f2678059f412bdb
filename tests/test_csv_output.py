"""CSV text: the column writer against a row-by-row oracle.

`serialize.write_csv` takes its table by columns. `_row_oracle_text` is the
text it wrote when it took rows and formatted each cell on its own; the
column writer must write the same bytes. The sha256 of the CLI's CSV files
is the `csv` store of `tests/pins.py`.
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqewit import serialize


def _row_oracle_text(header, rows) -> str:
    """The CSV text of the cell-by-cell writer the column writer replaced."""

    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _written_bytes(header, columns) -> bytes:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "t.csv"
        serialize.write_csv(path, header, columns)
        return path.read_bytes()


_SPECIAL_FLOATS = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, sys.float_info.max, 0.1, -1 / 3,
)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
# Python ints past int64: numpy reads a list of them as uint64, float64 or object.
_INTS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(2**63, 2**64 - 1), st.integers(-(2**70), 2**70))


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 30))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float array", "float64 scalars", "floats", "grid", "ints", "int array"]))
        if kind == "grid":  # few distinct values, repeated and tiled like a Wigner grid's x and p
            values = draw(st.lists(_FLOATS, min_size=1, max_size=4))
            column = np.resize(np.repeat(np.array(values), draw(st.integers(1, 8))), rows)
        elif kind == "int array":
            ints = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows))
            column = np.array(ints, dtype=np.int64)
        elif kind == "ints":
            column = draw(st.lists(_INTS, min_size=rows, max_size=rows))
        else:
            values = draw(st.lists(_FLOATS, min_size=rows, max_size=rows))
            column = {
                "float array": np.array(values, dtype=np.float64),
                "float64 scalars": [np.float64(v) for v in values],
                "floats": values,
            }[kind]
        columns.append(column)
    return columns


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_column_writer_matches_row_oracle(columns):
    header = [f"c{i}" for i in range(len(columns))]
    assert _written_bytes(header, columns) == _row_oracle_text(header, zip(*columns)).encode()


def test_signed_zeros_stay_apart_ints_stay_ints_and_no_rows_is_the_header():
    column = np.array([0.0, -0.0, 0.0, -0.0, math.nan, 5e-324])
    text = b"v,i\n0,0\n-0,1\n0,2\n-0,3\nnan,4\n4.9406564584124654e-324,5\n"
    assert _written_bytes(["v", "i"], [column, list(range(6))]) == text
    assert _written_bytes(["i"], [[2**63, 1]]) == b"i\n9223372036854775808\n1\n"
    assert _written_bytes(["x", "p", "w"], [np.empty(0), np.empty(0), np.empty(0)]) == b"x,p,w\n"


def test_wigner_grid_columns_match_row_oracle():
    xs = np.concatenate([-np.arange(0.05, 6.025, 0.05)[::-1], [0.0], np.arange(0.05, 6.025, 0.05)])
    ps = xs[::3]
    w = np.cos(np.add.outer(xs, ps))
    rows = [(float(xs[i]), float(ps[j]), float(w[i, j])) for i in range(xs.size) for j in range(ps.size)]
    columns = (np.repeat(xs, ps.size), np.tile(ps, xs.size), w.ravel())
    assert _written_bytes(("x", "p", "w"), columns) == _row_oracle_text(("x", "p", "w"), rows).encode()

