"""sqewit benchmark: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One run of a workload:

1. builds the workload's job list from the seed (workloads.py) and writes
   its input states, importing sqewit from the checkout's `src/`;
2. times interpreter + import set-up in fresh worker processes;
3. runs passes of the whole job list, each in a fresh worker process (a run
   of the job list is what one user script does), as many as fit in S
   seconds, at least two;
4. checks every job's outputs against reference.json and checks that every
   pass wrote byte-identical files.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. BLAS threads are pinned to
min(2, available cores) in every process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from harness import cold_flags, compare, extract, job_digests, median, tail
from worker import SPEED_SAMPLE_INTERVAL_S
from workloads import PHI, build, resource_file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPAWNS = 4  # the first only warms the bytecode cache and is not counted
PASS_TIMEOUT_S = 120.0  # keeps a hung pass inside the 180 s a run may take
PROBE_DIMS = (200, 250, 300)
PROBE_U = 3.0
# A speed sample's typical time (worker.SpeedSampler) on the 2-vCPU host
# where the benchmark was defined; run_s is reported at that speed.
REF_SPEED_SAMPLE_S = 2.5e-4
# A stretch between two speed samples longer than this was spent in one
# long C call.
SAMPLE_ON_TIME_S = 1.5 * SPEED_SAMPLE_INTERVAL_S

def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(spec: dict, tag: str, cwd: Path, timeout: float = PASS_TIMEOUT_S) -> tuple[float, dict]:
    """Run one worker process; returns (set-up seconds, worker result)."""
    spec_path = WORK / f"{tag}.spec.json"
    result_path = WORK / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), str(spec_path), str(result_path)],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    return result["ready"] - started, result


def make_inputs(resources: list[dict], sqewit, inputs: Path) -> None:
    """Write the gate-breed resource states (ground states and squeezed cats)."""
    states, witness, serialize = sqewit.states, sqewit.witness, sqewit.serialize
    inputs.mkdir(parents=True, exist_ok=True)
    for res in resources:
        phi = PHI[res["phi"]]
        if res["type"] == "ground":
            spec = witness.WitnessSpec(u=res["u"], phi=phi, c=res["c"], dim=res["dim"])
            state = states.optimal_sqe_approximation(spec).state
        else:
            spec = states.CatSpec(u=res["u"], r=res["r"], phi=phi, dim=res["dim"])
            state = states.squeezed_cat(spec)
        serialize.save_state(inputs / Path(resource_file(res)).name, state, {"key": res["key"]})


def comb_nonfinite_dims(sqewit) -> int:
    """How many probe dimensions give non-finite momentum-comb entries (untimed)."""
    import numpy as np

    bad = 0
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for dim in PROBE_DIMS:
            comb = sqewit.witness.momentum_comb(PROBE_U, 0.0, 100, dim)
            bad += int(not np.isfinite(comb).all())
    return bad


@dataclass
class Pass:
    """One pass: the worker's result plus, per job, its failure (None if none) and file digests."""

    traced: bool
    setup_s: float
    result: dict
    failures: list[str | None]
    digests: list[dict]


def run_pass(index: int, jobs: list[dict], cold: list[bool], traced: bool, refs: dict,
             hypervolume) -> Pass:
    """Run the job list once in a fresh worker and check each job's outputs."""
    workdir = WORK / f"pass{index}"
    workdir.mkdir(exist_ok=True)
    setup_s, result = spawn({"jobs": jobs, "cold": cold, "trace": traced}, f"pass{index}", workdir)
    failures, digests = [], []
    for job, timing in zip(jobs, result["jobs"]):
        error = timing["error"]
        digest = {}
        if error is None:
            try:
                errors = compare(extract(job, workdir, hypervolume), refs)
                digest = job_digests(job, workdir)
            except (OSError, ValueError, KeyError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            error = "; ".join(errors) or None
        failures.append(error)
        digests.append(digest)
    # The pass directory stays until the run ends: with each pass's files
    # deleted before the next pass, the small-file jobs grew slower from pass
    # to pass (README, Steadiness).
    return Pass(traced, setup_s, result, failures, digests)


def tally(passes: list[Pass], jobs: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every job of every pass.

    A job fails if it raised, exited non-zero, failed its output check, or
    wrote files that differ from the first pass's (same seed, same inputs).
    """
    attempted = failed = 0
    errors = []
    for k, p in enumerate(passes):
        for i, job in enumerate(jobs):
            attempted += 1
            error = p.failures[i]
            if error is None and k > 0 and p.digests[i] != passes[0].digests[i]:
                error = "output files differ from the first pass"
            if error is not None:
                failed += 1
                errors.append(f"pass {k} job {i} ({job['args'][0]}): {error}")
    return attempted, failed, errors


def scaled_run_s(result: dict) -> float:
    """A pass's job time with its interpreter stretches at the reference host speed.

    Each speed sample (worker.SpeedSampler) closes the stretch since the
    previous one ended. A stretch that ended on time ran Python and is scaled
    by REF_SPEED_SAMPLE_S / the sample's time. A longer one was held up by a
    long C call (BLAS, LAPACK), whose speed the pure-Python sample does not
    follow, and counts as measured.
    """
    prev = result["jobs"][0]["t0"]
    scaled = total = 0.0
    for start, duration in result["speed_samples"]:
        stretch = start - prev
        scaled += stretch * (REF_SPEED_SAMPLE_S / duration if stretch <= SAMPLE_ON_TIME_S else 1.0)
        total += stretch
        prev = start + duration
    return result["run_s"] * scaled / total


def end_to_end(setups: list[float], passes: list[Pass], cold: list[bool]) -> tuple[dict, dict]:
    """End-to-end metrics, each the median over the run's passes, and unbounded figures.

    `run_s` is each pass's summed job time at a reference host speed
    (scaled_run_s). The unscaled pass time and the job percentiles are
    returned in `notes["unbounded"]`.
    """
    run_s, wall_s, p50, cold_p50, tails = [], [], [], [], []
    for p in passes:
        times = [j["t1"] - j["t0"] - j["sampler_s"] for j in p.result["jobs"]]
        run_s.append(scaled_run_s(p.result))
        wall_s.append(sum(times))
        p50.append(median(times))
        cold_p50.append(median(t for t, c in zip(times, cold) if c))
        tails.append(tail(times))
    metrics = {
        "setup_s": median(setups),
        "run_s": median(run_s),
        "peak_rss_mb": median(p.result["peak_rss_mb"] for p in passes),
    }
    unbounded = {"wall_run_s": median(wall_s), "job_s.p50": median(p50),
                 "cold_job_s.p50": median(cold_p50)}
    # Frontier passes hold too few jobs for any percentile to have ten beyond it.
    if tails[0] is not None:
        unbounded[f"job_s.p{round(tails[0][1], 1):g}"] = median(t[0] for t in tails)
    notes = {"setup_samples": len(setups), "passes": len(passes), "jobs_per_pass": len(cold),
             "cold_jobs_per_pass": sum(cold), "unbounded": unbounded,
             "speed_samples": [len(p.result["speed_samples"]) for p in passes]}
    return metrics, notes


def per_layer(passes: list[Pass], probe: int) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    names = traced[0].result["layers"]
    metrics = {name: median(p.result["layers"][name] for p in traced) for name in names}
    metrics["trace.overhead_s"] = (
        median(p.result["run_s"] for p in traced) - median(p.result["run_s"] for p in plain)
    )
    metrics["witness.comb_nonfinite_dims"] = probe
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sqewit" / "__init__.py").is_file():
        fail(f"no sqewit sources under {ROOT / 'src'}; run from a full checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import sqewit  # after the BLAS pin: numpy reads it at import

    refs = json.loads((HERE / "reference.json").read_text())[args.workload]
    jobs, resources = build(args.workload, args.seed)
    cold = cold_flags(jobs)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        make_inputs(resources, sqewit, WORK / "inputs")
        probe = comb_nonfinite_dims(sqewit)
        setups = [spawn({"jobs": [], "cold": [], "trace": False}, f"setup{i}", WORK)[0]
                  for i in range(SETUP_SPAWNS)][1:]

        # Passes run while the next one, as long as the last, still ends
        # within --seconds; two at least, so that outputs can be compared.
        passes: list[Pass] = []
        start = now = time.monotonic()
        last = 0.0
        while len(passes) < 2 or now + last <= start + args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(len(passes), jobs, cold, traced, refs, sqewit.pareto.hypervolume))
            setups.append(passes[-1].setup_s)
            last, now = time.monotonic() - now, time.monotonic()
        measured_s = now - start
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted, failed, errors = tally(passes, jobs)
    if args.trace:
        metrics = per_layer(passes, probe)
        notes = {"traced_passes": sum(p.traced for p in passes)}
    else:
        metrics, notes = end_to_end(setups, passes, cold)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    notes.update({
        "workload": args.workload, "seed": args.seed, "measured_s": round(measured_s, 3),
        "blas_threads": BLAS_THREADS, "failed_ratio": failed / attempted,
        "witness.comb_nonfinite_dims": probe, "probe": {"u": PROBE_U, "dims": list(PROBE_DIMS)},
        "caches": passes[-1].result["caches"],
        "pass_run_s": [round(p.result["run_s"], 4) for p in passes],
    })

    for e in errors[:20]:
        print(f"FAILED {e}")
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:36s} {value:14.6g} {units.get(name, '')}")
    for name, value in notes.get("unbounded", {}).items():
        print(f"{args.workload:12s} {name:36s} {value:14.6g} s (unbounded)")
    print(f"{args.workload:12s} {'failed_ratio':36s} {failed / attempted:14.6g} 1")
    print("notes " + json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
