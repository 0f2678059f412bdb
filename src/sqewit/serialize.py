"""State files, reports, and grid emission (JSON for records, CSV for tables).

This is the package's only module that touches the filesystem: every read
and write goes through `read_json`, `write_text` or `make_dir`, which turn a
path that cannot be read or written into an InputFormatError naming it.
`check_writable` raises the same error before a command computes anything,
so that a bad output path leaves no partial output behind.
Floating-point values are written so they round-trip exactly: CSV cells use
17 significant digits, JSON relies on shortest-repr serialization (which is
round-trip exact by construction).
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Iterable, Sequence

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
    itself. A None path (a report going to stdout) passes.
    """
    for path in map(Path, filter(None, paths)):
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
    try:
        amps = np.array([complex(float(re), float(im)) for re, im in raw])
    except (TypeError, ValueError) as exc:
        raise InputFormatError("amplitudes must be [re, im] pairs of numbers") from exc
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


def csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(csv_cell(v) for v in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def json_text(payload: dict) -> str:
    """A report's JSON text: one-space indent, sorted keys, final newline."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def dump_json(path: str | Path, payload: dict) -> None:
    write_text(path, json_text(payload))
