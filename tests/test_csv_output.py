"""CSV text: the column writer against a row-by-row oracle.

`serialize.write_csv` takes its table by columns and streams its rows in
chunks. `_row_oracle_text` is the text it wrote when it took rows and
formatted each cell on its own; the column writer must write the same bytes
at every chunk size. The sha256 of the CLI's CSV files is the `csv` store of
`tests/pins.py`. The failure tests cover every file writer, the JSON ones
too, since all of them write through `serialize._write`. The last tests
bound the writer's memory.
"""

import builtins
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqewit import fock, serialize, states
from sqewit.errors import ContractViolationError, InputFormatError

CHUNK = serialize._CHUNK_ROWS
_CHUNK_SIZES = (1, 3, CHUNK)  # the oracle tests write each table at each of these


def _row_oracle_text(header, rows) -> str:
    """The CSV text of the cell-by-cell writer the column writer replaced."""

    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _written_bytes(header, columns, chunk_rows=CHUNK) -> bytes:
    with tempfile.TemporaryDirectory() as work, mock.patch.object(serialize, "_CHUNK_ROWS", chunk_rows):
        path = Path(work) / "t.csv"
        serialize.write_csv(path, header, columns)
        return path.read_bytes()


def _assert_written_at_every_chunk_size(header, columns, text: bytes) -> None:
    for chunk_rows in _CHUNK_SIZES:
        assert _written_bytes(header, columns, chunk_rows) == text, chunk_rows


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
    _assert_written_at_every_chunk_size(header, columns, _row_oracle_text(header, zip(*columns)).encode())


def test_signed_zeros_stay_apart_ints_stay_ints_and_no_rows_is_the_header():
    column = np.array([0.0, -0.0, 0.0, -0.0, math.nan, 5e-324])
    text = b"v,i\n0,0\n-0,1\n0,2\n-0,3\nnan,4\n4.9406564584124654e-324,5\n"
    _assert_written_at_every_chunk_size(["v", "i"], [column, list(range(6))], text)
    _assert_written_at_every_chunk_size(["i"], [[2**63, 1]], b"i\n9223372036854775808\n1\n")
    _assert_written_at_every_chunk_size(["x", "p", "w"], [np.empty(0), np.empty(0), np.empty(0)], b"x,p,w\n")


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_tables_across_chunk_boundaries_match_row_oracle(rows):
    # Each column repeats its values across chunks; the float array opens
    # each chunk with a zero whose sign alternates, so 0.0 and -0.0 fall in
    # different chunks once there are two.
    floats = np.resize(np.array([0.1, -1 / 3, 5e-324, math.inf, math.nan, 1e308]), rows)
    floats[::CHUNK] = np.where(np.arange(floats[::CHUNK].size) % 2, -0.0, 0.0)
    columns = (
        floats,
        [float(v) for v in np.resize(np.array([2.5, -0.0, 0.0]), rows)],
        [(i % 5) * 2**62 for i in range(rows)],
        np.resize(np.arange(-3, 4, dtype=np.int64), rows),
    )
    header = ("f", "g", "i", "j")
    assert _written_bytes(header, columns) == _row_oracle_text(header, zip(*columns)).encode()


def test_malformed_tables_are_refused_before_the_file_is_opened(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ContractViolationError, match="3 columns, but 2"):
        serialize.write_csv(path, ("a", "b", "c"), (np.zeros(2), np.zeros(2)))
    with pytest.raises(ContractViolationError, match=r"one length, got lengths \[1, 3\]"):
        serialize.write_csv(path, ("a", "b"), (np.zeros(3), [1.0]))
    assert not path.exists()


class _WriteRaises:
    """A text file whose write number `nth` raises `error`."""

    def __init__(self, path, mode, error, nth):
        self.handle, self.error, self.nth, self.writes = builtins.open(path, mode), error, nth, 0

    def write(self, text):
        self.writes += 1
        if self.writes == self.nth:
            raise self.error
        return self.handle.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


def _fail_write(monkeypatch, error, nth=2) -> None:
    """Make write_csv write two-row chunks, and write number `nth` of a file raise `error`.

    The second write of a table is its first chunk (the first is the header);
    a JSON file has one write.
    """
    monkeypatch.setattr(serialize, "_CHUNK_ROWS", 2)
    monkeypatch.setattr(serialize, "open", lambda path, mode: _WriteRaises(path, mode, error, nth), raising=False)


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), MemoryError("chunk")])
def test_failed_chunk_write_leaves_no_partial_file(tmp_path, monkeypatch, error):
    path = tmp_path / "t.csv"
    _fail_write(monkeypatch, error)
    expected = InputFormatError if isinstance(error, OSError) else MemoryError
    with pytest.raises(expected) as raised:
        serialize.write_csv(path, ("x",), (np.arange(10.0),))
    assert not path.exists()
    if isinstance(error, OSError):  # the path, then the cause
        assert str(raised.value) == f"cannot write {path}: {error}"
        assert raised.value.__cause__ is error
    else:
        assert raised.value is error


def test_failed_write_through_a_symlink_keeps_the_link(tmp_path, monkeypatch):
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "target")
    writes = (
        (2, lambda: serialize.write_csv(link, ("x",), (np.arange(10.0),))),
        (1, lambda: serialize.save_state(link, fock.vacuum(3))),
        (1, lambda: serialize.dump_json(link, {"a": 1})),
    )
    for nth, write in writes:
        _fail_write(monkeypatch, OSError(5, "Input/output error"), nth)
        with pytest.raises(InputFormatError, match=f"^cannot write {link}: "):
            write()
        assert link.is_symlink()
        assert not (tmp_path / "target").exists()


# A child process whose files may not grow past 100 kB, with SIGXFSZ ignored
# so that a write past the limit fails with EFBIG instead of killing it.
# Each writer gets more than the limit; the child prints the error text and
# whether the file is left.
_FSIZE_CHILD = """\
import json, os, resource, signal, sys
import numpy as np
from sqewit import fock, serialize
from sqewit.errors import InputFormatError

writers = {
    "save_state": lambda path: serialize.save_state(path, fock.FockState(np.ones(20000))),
    "dump_json": lambda path: serialize.dump_json(path, {"values": list(range(50000))}),
    "write_csv": lambda path: serialize.write_csv(path, ("x",), (np.arange(50000.0),)),
}
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
writer, path = sys.argv[1], sys.argv[2]
try:
    writers[writer](path)
    error = None
except InputFormatError as exc:
    error = str(exc)
print(json.dumps({"error": error, "left": os.path.exists(path)}))
"""


def _run_child(code: str, *args: str) -> str:
    """Stdout of `python -c code args` with this package on its path."""
    src = str(Path(serialize.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return result.stdout


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_FSIZE is POSIX")
@pytest.mark.parametrize("writer", ["save_state", "dump_json", "write_csv"])
def test_write_past_the_file_size_limit_leaves_no_file(tmp_path, writer):
    path = tmp_path / f"out.{'csv' if writer == 'write_csv' else 'json'}"
    outcome = json.loads(_run_child(_FSIZE_CHILD, writer, str(path)))
    assert outcome["error"] is not None and outcome["error"].startswith(f"cannot write {path}: "), outcome
    assert not outcome["left"]


def test_wigner_grid_columns_match_row_oracle():
    xs = np.concatenate([-np.arange(0.05, 6.025, 0.05)[::-1], [0.0], np.arange(0.05, 6.025, 0.05)])
    ps = xs[::3]
    w = np.cos(np.add.outer(xs, ps))
    rows = [(float(xs[i]), float(ps[j]), float(w[i, j])) for i in range(xs.size) for j in range(ps.size)]
    columns = (np.repeat(xs, ps.size), np.tile(ps, xs.size), w.ravel())
    assert _written_bytes(("x", "p", "w"), columns) == _row_oracle_text(("x", "p", "w"), rows).encode()


# Memory bounds of the streaming writer. Each bound sits between what the
# streaming writer measures on a 2-vCPU Xeon host (3.5 MB traced on the
# 241 x 241 table, 193 MB resident for `wigner --step 0.01`) and what a
# writer holding every cell, row and the whole text measures (12.3 MB and
# 398 MB), so that the held copies cannot come back unnoticed.


def _recipe_state() -> fock.FockState:
    """The README's wigner input: the N = 8 ground state of u = 3, phi = 0, c = 10."""
    return states.ground_state_sweep(3.0, 0.0, 10.0, [8], k=100)[0].state


def test_writer_traced_peak_on_the_recipe_wigner_table(tmp_path):
    grid = np.concatenate([-np.arange(0.05, 6.025, 0.05)[::-1], [0.0], np.arange(0.05, 6.025, 0.05)])
    w = fock.wigner(_recipe_state(), grid, grid)
    columns = (np.repeat(grid, grid.size), np.tile(grid, grid.size), w.ravel())
    tracemalloc.start()
    try:
        serialize.write_csv(tmp_path / "w.csv", ("x", "p", "w"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, f"write_csv traced peak {peak / 1e6:.1f} MB on a 241 x 241 table"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from Linux /proc")
def test_fine_wigner_grid_peak_resident_memory(tmp_path):
    state_path, out = tmp_path / "state.json", tmp_path / "w.csv"
    serialize.save_state(state_path, _recipe_state())
    args = ["wigner", "--state", str(state_path), "--xmax", "6", "--pmax", "6", "--step", "0.01", "--out", str(out)]
    # VmHWM, not ru_maxrss: Linux carries the forking process's high-water
    # mark into ru_maxrss across exec, so a large test process would count.
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from sqewit import cli\n"
        "cli.main(sys.argv[1:], standalone_mode=False)\n"
        "print(next(line for line in Path('/proc/self/status').read_text().splitlines() if line.startswith('VmHWM')))\n"
    )
    peak_mb = int(_run_child(code, *args).split()[-2]) / 1024  # "VmHWM:  197408 kB"
    assert out.stat().st_size > 80e6
    assert peak_mb <= 260, f"wigner --step 0.01 peaked at {peak_mb:.0f} MB resident"
