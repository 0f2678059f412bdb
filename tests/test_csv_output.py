"""CSV text: the CLI tables pinned by sha256, and the writer against a row-by-row oracle.

`serialize.write_csv` takes its table by columns. `_row_oracle_text` is the
text it wrote when it took rows and formatted each cell on its own; the
column writer must write the same bytes.

`csv_pin.json` holds the sha256 of CSV files written by the CLI, recorded
while `serialize.write_csv` still formatted each cell on its own
(`f"{value:.17g}"` for floats, `str` otherwise, one join per row). The two
`wigner` keys were re-recorded when `fock.wigner` moved to Clenshaw
summation, and `ground|u=3|phi=pi|dims=9:9` when the odd sector's
`stellar_bound` became its highest level (7, not 8). The files are written
in a child process with one BLAS thread, as in `test_construction.py`.

Regenerate the JSON only on purpose. Add keys; re-record a key only when
its producer changed on purpose, with the cause stated in CHANGES.md. The
entry point prints on stderr each key that changed, was added or was
removed against the existing pin, so write to a new file and move it:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \
        python tests/test_csv_output.py > csv_pin.new && mv csv_pin.new tests/csv_pin.json
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import sqewit
from sqewit import serialize
from sqewit.cli import main

PIN = Path(__file__).with_name("csv_pin.json")

# Each run: (key prefix, CLI arguments, CSV files it writes relative to the work directory).
_PI = repr(math.pi)
RUNS = (
    ("ground|u=3|phi=0|dims=3:12", ["ground", "--dims", "3:12", "--out", "g"], ["g/index.csv"]),
    ("ground|u=3|phi=pi|dims=9:9", ["ground", "--phi", _PI, "--dims", "9:9", "--out", "godd"], ["godd/index.csv"]),
    (
        "wigner|even N=8|xmax=6|pmax=6|step=0.05",
        ["wigner", "--state", "g/state_N8.json", "--xmax", "6", "--pmax", "6", "--step", "0.05", "--out", "w8.csv"],
        ["w8.csv"],
    ),
    (
        "wigner|odd N=9|xmax=3|pmax=4|step=0.07",
        ["wigner", "--state", "godd/state_N9.json", "--xmax", "3", "--pmax", "4", "--step", "0.07", "--out", "w9.csv"],
        ["w9.csv"],
    ),
    ("opaccuracy|u=3|k=100|nmax=30", ["opaccuracy", "--nmax", "30", "--out", "acc.csv"], ["acc.csv"]),
    (
        "frontier|fidelity|dim=4|pop=20|gens=5|seed=1",
        ["frontier", "--dim", "4", "--pop", "20", "--gens", "5", "--seed", "1", "--out", "f.csv"],
        ["f.csv", "f.genomes.csv"],
    ),
    (
        "frontier|fidelity|dim=4|pop=20|gens=0|seed=2",
        ["frontier", "--dim", "4", "--pop", "20", "--gens", "0", "--seed", "2", "--out", "f0.csv"],
        ["f0.csv", "f0.genomes.csv"],
    ),
    (
        "frontier|gkp|dim=4|pop=12|gens=2|seed=3",
        ["frontier", "--problem", "gkp", "--dim", "4", "--pop", "12", "--gens", "2", "--seed", "3", "--out", "fg.csv"],
        ["fg.csv", "fg.genomes.csv"],
    ),
)


def csv_digests() -> dict:
    runner = CliRunner()
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for prefix, args, files in RUNS:
                result = runner.invoke(main, args)
                assert result.exit_code == 0, (args, result.output)
                for name in files:
                    digests[f"{prefix}|{Path(name).name}"] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return digests


def test_cli_csv_bytes_pinned():
    src = str(Path(sqewit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    got = json.loads(done.stdout)
    want = json.loads(PIN.read_text())
    for key in want:
        assert got[key] == want[key], key
    assert got.keys() == want.keys()


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


if __name__ == "__main__":
    digests = csv_digests()
    # An empty pin (a shell redirect onto it) reads as no keys: all "added".
    pinned = json.loads(PIN.read_text() or "{}") if PIN.exists() else {}
    for key in sorted(pinned.keys() | digests.keys()):
        if pinned.get(key) != digests.get(key):
            change = "added" if key not in pinned else "removed" if key not in digests else "changed"
            print(f"{change}: {key}", file=sys.stderr)
    print(json.dumps(digests, indent=1))
