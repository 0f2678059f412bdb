"""Statistics, job classification and output checks shared by the runner.

Everything here is a pure function of job specs, timings and output files,
so it can be tested without running sqewit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

# Output checks: a value matches its reference when
# |value - ref| <= ABS_TOL + REL_TOL * |ref|. The references were recorded
# by record_reference.py; these tolerances absorb reduction-order rounding,
# not a change of the numbers.
REL_TOL = 1e-7
ABS_TOL = 1e-9

# Hypervolume reference corners (worst corner, both objectives minimized):
# (xi_sqe_db, fidelity) for `fidelity`, (xi_sqe_db, -gkp_db) for `gkp`.
HV_CORNER = {"fidelity": (10.0, 1.0), "gkp": (10.0, 10.0)}

TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int] | None:
    """Highest order statistic with at least `beyond` samples above it.

    Returns (value, percentile, sample count), or None when there are too
    few samples for any such percentile.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def cold_flags(jobs: list[dict]) -> list[bool]:
    """A job is cold when it is the first of its (command, kind, dim) in the run."""
    seen: set[tuple] = set()
    flags = []
    for job in jobs:
        key = (job["cmd"], job["kind"], job["dim"])
        flags.append(key not in seen)
        seen.add(key)
    return flags


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Output extraction
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def extract(job: dict, workdir: Path, hypervolume) -> dict[str, dict]:
    """Checked values of one job's outputs, keyed by reference key.

    `hypervolume(objectives, corner)` is sqewit's `pareto.hypervolume`.
    Raises OSError, ValueError or KeyError when an output is missing or
    malformed.
    """
    cmd = job["cmd"]
    out = workdir / job["out"]
    if cmd == "ground":
        rows = {int(r["N"]): r for r in _read_csv(out / "index.csv")}
        values = {}
        for n in job["dims"]:
            if not (out / f"state_N{n}.json").is_file():
                raise OSError(f"missing state file for N={n}")
            values[f"{job['ref']}|N={n}"] = {
                "eigenvalue": float(rows[n]["eigenvalue"]),
                "xi_db": float(rows[n]["xi_db"]),
            }
        return values
    if cmd == "witness":
        report = _read_json(out)
        return {job["ref"]: {k: report[k] for k in ("expectation", "xi_db", "gaussian_bound")}}
    if cmd == "wigner":
        rows = _read_csv(out)
        w = [float(r["w"]) for r in rows]
        return {job["ref"]: {"rows": len(w), "sum": math.fsum(w), "max": max(w)}}
    if cmd == "opaccuracy":
        rows = _read_csv(out)
        return {
            job["ref"]: {
                "rows": len(rows),
                "approx_sum": math.fsum(float(r["approx"]) for r in rows),
                "max_rel_error": max(float(r["rel_error"]) for r in rows),
            }
        }
    if cmd == "gate":
        report = _read_json(out)
        return {job["ref"]: {k: report[k] for k in ("fidelity", "success_norm")}}
    if cmd == "breed":
        report = _read_json(out)
        keys = ("input_gkp_db", "per_round_gkp_db", "success_norms", "gaussian_min_q0")
        return {job["ref"]: {k: report[k] for k in keys}}
    if cmd == "frontier":
        rows = _read_csv(out)
        sign = 1.0 if job["kind"] == "fidelity" else -1.0
        objs = [(float(r["xi_sqe_db"]), sign * float(r[job["metric"]])) for r in rows]
        hv = hypervolume(objs, HV_CORNER[job["kind"]]) if objs else 0.0
        return {job["ref"]: {"front_size": len(objs), "hypervolume": float(hv)}}
    raise ValueError(f"unknown command {cmd!r}")


def _close(value, ref) -> bool:
    if isinstance(ref, list):
        return isinstance(value, list) and len(value) == len(ref) and all(map(_close, value, ref))
    if isinstance(ref, int) and not isinstance(ref, bool):
        return value == ref
    return abs(float(value) - float(ref)) <= ABS_TOL + REL_TOL * abs(float(ref))


def compare(values: dict[str, dict], refs: dict[str, dict]) -> list[str]:
    """Mismatches between extracted values and their references (empty if none)."""
    errors = []
    for key, fields in values.items():
        ref = refs.get(key)
        if ref is None:
            errors.append(f"{key}: no reference value")
            continue
        for name, want in ref.items():
            got = fields.get(name)
            if got is None or not _close(got, want):
                errors.append(f"{key}: {name} = {got!r}, reference {want!r}")
    return errors


# ---------------------------------------------------------------------------
# Byte-identity of same-seed outputs
# ---------------------------------------------------------------------------


def output_files(job: dict, workdir: Path) -> list[Path]:
    out = workdir / job["out"]
    if out.is_dir():
        return sorted(p for p in out.iterdir() if p.is_file())
    if job["cmd"] == "frontier":
        stem = out.with_suffix("")
        return [out, Path(f"{stem}.genomes.csv"), Path(f"{stem}.meta.json")]
    if job["cmd"] == "breed":
        return [out, workdir / job["state_out"]]
    return [out]


def file_digest(path: Path) -> str:
    """sha256 of a file; frontier metadata is hashed without its wall time.

    `wall_time_s` is the one field of sqewit's outputs that is measured, not
    computed, so it is the one field allowed to differ between same-seed runs.
    """
    data = path.read_bytes()
    if path.name.endswith(".meta.json"):
        meta = json.loads(data)
        meta.pop("wall_time_s", None)
        data = json.dumps(meta, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def job_digests(job: dict, workdir: Path) -> dict[str, str]:
    return {str(p.relative_to(workdir)): file_digest(p) for p in output_files(job, workdir)}
