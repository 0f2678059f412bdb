"""Machine record plus the ROADMAP's quoted baselines, measured through the tracer.

Run from the root of a checkout: python3 perfbench/baseline.py
Writes perfbench/MACHINE.json. Each figure is the median of REPEATS fresh
processes, read from the per-layer spans (the same wrappers as a traced
benchmark pass), next to the value the ROADMAP quotes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

REPEATS = 3

# name -> (quoted value in s, where the quote comes from)
QUOTED = {
    "fock.coupler.build_s BS N=60": (1.56, "ROADMAP baseline"),
    "fock.coupler.build_s QND N=60": (4.44, "ROADMAP baseline"),
    "breeding.gaussian_min_q0 N=80": (0.20, "ROADMAP baseline"),
    "pareto.generation_s.p50 fidelity N=6 pop=200": (
        33.7 / 500, "ROADMAP: ACCEPT-09, 500 generations in 33.7 s",
    ),
}


def measure() -> dict:
    """One fresh process: each baseline once, timed by tracer spans."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import sqewit

    import tracer as tracing

    t = tracing.Tracer()
    tracing.instrument(t, sqewit)
    out = {}
    for kind in ("BS", "QND"):
        sqewit.fock.two_mode_coupler(kind, 60)
        out[f"fock.coupler.build_s {kind} N=60"] = [s for s in t.spans if s.name == "fock.coupler"][-1].duration
    sqewit.breeding.gaussian_min_q0(80)
    out["breeding.gaussian_min_q0 N=80"] = next(
        s.duration for s in t.spans if s.name == "breeding.gaussian_min"
    )
    spec = sqewit.witness.WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=6)
    sqewit.pareto.evolve("fidelity", spec, sqewit.pareto.NsgaConfig(seed=1, population=200, generations=50))
    out["pareto.generation_s.p50 fidelity N=6 pop=200"] = tracing.generation_p50(t.spans)
    return out


def machine() -> dict:
    import numpy
    import scipy

    info = Path("/proc/cpuinfo").read_text() if Path("/proc/cpuinfo").is_file() else ""
    model = next((line.split(":", 1)[1].strip() for line in info.splitlines()
                  if line.startswith("model name")), platform.processor())
    mem = Path("/proc/meminfo").read_text().split()[1] if Path("/proc/meminfo").is_file() else "0"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "ram_gib": round(int(mem) / 2**20, 1),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": run.BLAS_THREADS,
    }


def main() -> int:
    if sys.argv[1:] == ["--measure"]:
        print(json.dumps(measure()))
        return 0
    env = dict(os.environ, **{var: str(run.BLAS_THREADS) for var in run.BLAS_ENV})
    runs = []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, __file__, "--measure"], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    baselines = {
        name: {"traced_s": statistics.median(r[name] for r in runs), "runs": [r[name] for r in runs],
               "quoted_s": quoted, "quoted_from": source}
        for name, (quoted, source) in QUOTED.items()
    }
    record = {"machine": machine(), "baselines": baselines}
    (run.HERE / "MACHINE.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, b in baselines.items():
        print(f"{name:48s} traced {b['traced_s']:.4f} s   quoted {b['quoted_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
