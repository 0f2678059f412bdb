"""One pass of a workload in a fresh process: python3 worker.py ROOT SPEC RESULT.

SPEC is a JSON file {"jobs": [...], "cold": [...], "trace": bool}; the jobs
run one after another through click's CliRunner with the current directory
as their working directory. RESULT receives the timings, the speed samples
(untraced passes), the process's own peak RSS, the cache counters and, when
traced, the per-layer metrics. The time at
which the first job could start is written first, so the parent can measure
set-up (interpreter start plus numpy/scipy/click/sqewit import).
"""

from __future__ import annotations

import contextlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

CACHES = {
    "witness.build_witness": ("witness", "build_witness"),
    "breeding.build_q0": ("breeding", "build_q0"),
    "breeding.gaussian_min_q0": ("breeding", "gaussian_min_q0"),
    "breeding.gkp_witness": ("breeding", "gkp_witness"),
    "fock.coupler": ("fock", "_coupler_cached"),
}
SPEED_SAMPLE_LOOPS = 5000
SPEED_SAMPLE_INTERVAL_S = 0.02


class SpeedSampler:
    """Times a fixed pure-Python loop every SPEED_SAMPLE_INTERVAL_S of wall time.

    The host's speed drifts by up to half, over seconds and over minutes; the
    runner scales each pass's run time by the speed these samples show
    (run.scaled_run_s). The loop allocates nothing and calls nothing, so no
    change to sqewit can change its time. It runs from a SIGALRM handler,
    which Python calls in the main thread between bytecodes: a sample that
    falls due during a long C call (a BLAS routine) runs when the call
    returns, and the runner leaves such a held-up stretch unscaled. The
    samples' own time is taken out of the job times.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        total = 0
        for i in range(SPEED_SAMPLE_LOOPS):
            total += i
        d = time.perf_counter() - t
        self.samples.append((t, d))
        self.spent += d

    def __enter__(self) -> SpeedSampler:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_SAMPLE_INTERVAL_S, SPEED_SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_mb() -> float:
    """High-water RSS of this process's own memory map, in MiB.

    VmHWM starts afresh at exec. ru_maxrss does not: on Linux the child of a
    fork or vfork inherits the parent's high-water mark, so it would report
    the parent's memory whenever the worker uses less.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_counters(sqewit) -> dict:
    """cache_info() of each lru_cache the benchmark watches, or "absent"."""
    out = {}
    for name, (module, attr) in CACHES.items():
        fn = getattr(getattr(sqewit, module), attr, None)
        if not hasattr(fn, "cache_info"):  # a tracing wrapper around the cached function
            fn = getattr(fn, "__wrapped__", None)
        info = getattr(fn, "cache_info", None)
        out[name] = info()._asdict() if info else "absent"
    return out


def main(root: str, spec_path: str, result_path: str) -> int:
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import sqewit
    from click.testing import CliRunner
    from sqewit.cli import main as cli

    if Path(sqewit.__file__).resolve().parent != src / "sqewit":
        raise SystemExit(f"imported sqewit from {sqewit.__file__}, not from {src}")
    runner = CliRunner()
    ready = time.monotonic()

    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(memory_layers=tracing.MEMORY_LAYERS)
        tracing.instrument(tracer, sqewit)

    # Traced passes give per-layer figures only, so they are not sampled.
    sampler = SpeedSampler()
    jobs = []
    with contextlib.nullcontext() if tracer is not None else sampler:
        for i, job in enumerate(spec["jobs"]):
            spent = sampler.spent
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.job = i
                span = tracer.open("cli")
            try:
                res = runner.invoke(cli, job["args"], catch_exceptions=True)
            finally:
                if tracer is not None:
                    tracer.close(span)
            t1 = time.perf_counter()
            error = None
            if res.exit_code != 0:
                error = f"exit {res.exit_code}: {res.output.strip()[-300:]}"
                if res.exception is not None and not isinstance(res.exception, SystemExit):
                    error += f" ({type(res.exception).__name__}: {res.exception})"
            jobs.append({"t0": t0, "t1": t1, "sampler_s": sampler.spent - spent, "error": error})

    run_s = sum(j["t1"] - j["t0"] - j["sampler_s"] for j in jobs)
    result = {
        "ready": ready,
        "jobs": jobs,
        "run_s": run_s,
        "speed_samples": sampler.samples,
        "peak_rss_mb": peak_rss_mb(),
        "caches": cache_counters(sqewit),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, spec["cold"], run_s)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
