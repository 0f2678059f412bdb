"""State files, reports, and grid emission (JSON for records, CSV for tables).

This is the package's only module that touches the filesystem: every read
and write goes through `read_json`, `write_text` or `make_dir`, which turn a
path that cannot be read or written into an InputFormatError naming it.
`check_writable` raises the same error before a command computes anything,
so that a bad output path leaves no partial output behind.
Floating-point values are written so they round-trip exactly: CSV cells use
17 significant digits, JSON relies on shortest-repr serialization (which is
round-trip exact by construction).

CSV tables are written by columns (`write_csv`). A float64 column is
formatted with "%.17g", the formatter of f"{value:.17g}", once per distinct
value: a Wigner grid's x and p columns repeat each grid point hundreds of
times, so most of their cells cost one gather. The values are deduplicated
on their bit patterns, because float equality would merge -0.0 with 0.0,
which are written "-0" and "0". Any other column is formatted with str, and
the rows are joined once. The text is the same as formatting cell by cell.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputFormatError
from .fock import FockState

NORM_WARN_TOL = 1e-6


def state_to_dict(state: FockState, metadata: dict | None = None) -> dict:
    return {
        "dim": state.dim,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amps],
        "metadata": {str(k): str(v) for k, v in (metadata or {}).items()},
    }


def read_json(path: str | Path):
    """Parsed JSON content of a file."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


def check_writable(*paths: str | Path | None) -> None:
    """Raise InputFormatError unless each path can be written as a file.

    Its parent must be a writable directory, and it must not be a directory
    itself. No two paths may name the same file, since the later write would
    replace the earlier. A None path (a report going to stdout) passes.
    """
    seen = set()
    for path in map(Path, filter(None, paths)):
        absolute = os.path.abspath(path)
        if absolute in seen:
            raise InputFormatError(f"cannot write {path}: another output names the same file")
        seen.add(absolute)
        if path.is_dir():
            raise InputFormatError(f"cannot write {path}: it is a directory")
        if not (path.parent.is_dir() and os.access(path.parent, os.W_OK)):
            raise InputFormatError(f"cannot write {path}: {path.parent} is not a writable directory")


def make_dir(path: str | Path) -> None:
    """Create a directory and its parents; an existing directory is fine."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputFormatError(f"cannot create directory {path}: {exc}") from exc


def save_state(path: str | Path, state: FockState, metadata: dict | None = None) -> None:
    write_text(path, json.dumps(state_to_dict(state, metadata), indent=1) + "\n")


def state_from_dict(payload: dict) -> tuple[FockState, dict]:
    if not isinstance(payload, dict):
        raise InputFormatError("state file must contain a JSON object")
    try:
        dim, raw = payload["dim"], payload["amplitudes"]
    except KeyError as exc:
        raise InputFormatError(f"state file missing field: {exc}") from exc
    if type(dim) is not int or dim < 1:  # bool is an int subclass: refused too
        raise InputFormatError(f"dim must be a JSON integer >= 1, got {dim!r}")
    if not isinstance(raw, list) or len(raw) != dim:
        raise InputFormatError(
            f"amplitudes must be a list of length dim={dim}, got {type(raw).__name__} "
            f"of length {len(raw) if isinstance(raw, list) else 'n/a'}"
        )
    # Exact types: float() would also take strings and booleans ("1", true),
    # and a two-character string would unpack as a pair.
    for pair in raw:
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) in (int, float) for v in pair)):
            raise InputFormatError(f"amplitudes must be [re, im] pairs of JSON numbers, got {pair!r}")
    try:
        amps = np.array([complex(float(re), float(im)) for re, im in raw])
    except OverflowError as exc:  # an integer beyond float range
        raise InputFormatError("amplitudes must be finite (no NaN or Infinity)") from exc
    if not np.all(np.isfinite(amps)):
        raise InputFormatError("amplitudes must be finite (no NaN or Infinity)")
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise InputFormatError("state file holds the zero vector")
    if abs(norm - 1.0) > NORM_WARN_TOL:
        warnings.warn(
            f"state file norm {norm:.9f} deviates from 1 by more than {NORM_WARN_TOL}; renormalized",
            RuntimeWarning,
            stacklevel=2,
        )
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InputFormatError("metadata must be an object")
    return FockState(amps), metadata


def load_state(path: str | Path) -> tuple[FockState, dict]:
    return state_from_dict(read_json(path))


def _column_cells(column) -> list[str]:
    """The CSV cells of one column, in order."""
    is_float64 = isinstance(column, np.ndarray) and column.dtype == np.float64
    if not (is_float64 or all(isinstance(value, float) for value in column)):
        return [str(value) for value in column]
    bits, where = np.unique(np.asarray(column, dtype=np.float64).view(np.int64), return_inverse=True)
    texts = ["%.17g" % value for value in bits.view(np.float64).tolist()]
    return [texts[i] for i in where.tolist()]


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a table given by columns, one per header name, all of one length.

    A column holds one type. A float64 array, or a sequence of floats, has
    "%.17g" cells, each distinct bit pattern formatted once and gathered;
    keying on bits keeps -0.0 ("-0") apart from 0.0 ("0"). Any other column
    (ints, for one, which numpy would read as floats from 2**63 on) has str
    cells. Lines end in "\n", the last one included; a table with no
    rows is its header line.
    """
    cells = [_column_cells(column) for column in columns]
    write_text(path, "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")


def json_text(payload: dict) -> str:
    """A report's JSON text: one-space indent, sorted keys, final newline."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def dump_json(path: str | Path, payload: dict) -> None:
    write_text(path, json_text(payload))
