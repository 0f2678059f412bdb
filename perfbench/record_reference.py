"""Record reference.json: the checked values of every pool entry of every workload.

Run from the root of a checkout:
    python3 perfbench/record_reference.py [WORKLOAD ...]

With workload names, only those are re-recorded and the others' entries kept.

Each workload's whole pool (workloads.pool) runs once in a worker process
with the same BLAS pin as the benchmark, and the values the benchmark checks
are stored per reference key. Re-record only when a change is meant to alter
sqewit's numbers, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from harness import extract
from workloads import WORKLOADS, pool


def main() -> int:
    for var in run.BLAS_ENV:
        run.os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    import sqewit

    names = sys.argv[1:] or list(WORKLOADS)
    path = run.HERE / "reference.json"
    refs: dict[str, dict] = json.loads(path.read_text()) if path.is_file() else {}
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    try:
        for name in names:
            jobs, resources = pool(name)
            run.make_inputs(resources, sqewit, run.WORK / "inputs")
            workdir = run.WORK / name
            workdir.mkdir()
            _, result = run.spawn({"jobs": jobs, "cold": [False] * len(jobs), "trace": False},
                                  name, workdir, timeout=3600)
            values = {}
            for job, timing in zip(jobs, result["jobs"]):
                if timing["error"] is not None:
                    raise SystemExit(f"{name}: {' '.join(job['args'])}: {timing['error']}")
                values.update(extract(job, workdir, sqewit.pareto.hypervolume))
            refs[name] = values
            print(f"{name}: {len(values)} reference entries from {len(jobs)} jobs")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
