"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7].
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    a = t.open("a")
    b = t.open("b")
    c = t.open("c")
    t.close(c)
    t.close(b)
    d = t.open("d")
    t.close(d)
    t.close(a)
    assert [s.name for s in t.spans] == ["a", "b", "c", "d"]
    assert tracing.self_times(t.spans) == [5, 2, 1, 2]
    assert tracing.top_level_time(t.spans, {"b", "c"}) == 3


def test_wrapped_function_that_raises_closes_its_span():
    class Owner:
        @staticmethod
        def boom():
            raise ValueError("no")

    t = tracing.Tracer()
    tracing._wrap(t, Owner, "boom", "layer")
    with pytest.raises(ValueError):
        Owner.boom()
    assert t.spans[0].attrs["error"] == "ValueError" and t.spans[0].end >= t.spans[0].start
    assert t._stack == []


def test_memory_span_records_traced_peak_and_stops_tracing():
    import tracemalloc

    t = tracing.Tracer(memory_layers=("gates",))
    outer = t.open("gates")
    block = np.ones(1 << 20)  # 8 MiB
    del block
    t.close(outer)
    assert outer.peak_bytes >= 8 * (1 << 20)
    assert not tracemalloc.is_tracing()


def test_reported_metrics_are_exactly_the_declared_ones():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    t = tracing.Tracer()
    t.spans.append(tracing.Span(name="cli", parent=-1, job=0, start=0.0, end=1.0))
    plain = run.Pass(False, 0.0, {"run_s": 1.0}, [], [])
    traced = run.Pass(True, 0.0, {"run_s": 1.0, "layers": tracing.layer_metrics(t, [True], 1.0)}, [], [])
    assert set(run.per_layer([plain, traced], 0)) == {m["name"] for m in bench["per_layer"]}

    result = {"run_s": 11.0, "speed_samples": [(0.5, 1e-4)], "peak_rss_mb": 1.0,
              "jobs": [{"t0": 0.0, "t1": 1.0, "sampler_s": 0.0}] * 11}
    metrics, _ = run.end_to_end([1.0], [run.Pass(False, 0.0, result, [], [])], [True] * 11)
    assert set(metrics) == {m["name"] for m in bench["end_to_end"]}


def test_run_s_is_job_time_at_the_reference_sample_speed():
    def pass_at(slowdown: float) -> run.Pass:
        jobs = [{"t0": 0.0, "t1": 0.5 * slowdown, "sampler_s": 0.0},
                {"t0": 0.5 * slowdown, "t1": 2.0 * slowdown, "sampler_s": 0.0}]
        samples = [(0.01 * k * slowdown, run.REF_SPEED_SAMPLE_S * slowdown) for k in range(1, 200)]
        result = {"jobs": jobs, "run_s": 2.0 * slowdown, "speed_samples": samples, "peak_rss_mb": 1.0}
        return run.Pass(False, 0.0, result, [], [])

    metrics, notes = run.end_to_end([1.0], [pass_at(1.0), pass_at(1.5), pass_at(1.5)], [True, False])
    assert metrics["run_s"] == pytest.approx(2.0)
    assert notes["unbounded"]["wall_run_s"] == pytest.approx(3.0)


def test_a_stretch_held_up_by_a_long_c_call_counts_as_measured():
    ref = run.REF_SPEED_SAMPLE_S
    jobs = [{"t0": 0.0, "t1": 2.0, "sampler_s": 0.0}]
    # on time after 0.02 s at half speed, then held up until 1.9 s
    result = {"jobs": jobs, "run_s": 2.0, "speed_samples": [(0.02, 2 * ref), (1.9, ref)]}
    held = 1.9 - 0.02 - 2 * ref
    assert run.scaled_run_s(result) == pytest.approx(2.0 * (0.02 * 0.5 + held) / (0.02 + held))


def test_speed_sampler_samples_during_a_job_and_stops():
    import signal
    import time

    with worker.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5
    assert sampler.spent == pytest.approx(sum(d for _, d in sampler.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_deleted_cache_is_reported_absent_and_every_call_counts_as_a_build():
    import functools
    import types

    cached = functools.lru_cache(maxsize=2)(lambda n: n)
    fake = types.SimpleNamespace(
        witness=types.SimpleNamespace(build_witness=cached),
        breeding=types.SimpleNamespace(),
        fock=types.SimpleNamespace(),
    )
    counters = worker.cache_counters(fake)
    assert counters["fock.coupler"] == "absent" and counters["breeding.gkp_witness"] == "absent"
    assert counters["witness.build_witness"]["misses"] == 0

    before, after = tracing._cache_delta(None)
    span = tracing.Span(name="fock.coupler", parent=-1, job=0, start=0.0)
    after(span, before((), {}), (), {}, None)
    assert span.attrs["built"] is True


def test_worker_peak_rss_excludes_the_parents_memory():
    held = np.ones(200 * (1 << 20) // 8)  # 200 MiB resident in this process
    probe = f"import sys; sys.path.insert(0, {str(HERE)!r}); import worker; print(worker.peak_rss_mb())"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert float(out.stdout) < 100, out.stderr
    del held


def test_tail_is_highest_order_statistic_with_ten_beyond():
    values = [float(v) for v in range(48, 0, -1)]
    value, percentile, n = harness.tail(values)
    assert n == 48
    assert sum(v > value for v in values) == 10
    assert value == 38.0 and percentile == pytest.approx(100 * 38 / 48)
    assert harness.tail(values[:10]) is None
    assert harness.tail(values[:11])[0] == min(values[:11])


def test_cold_jobs_are_first_of_their_command_kind_and_dim():
    jobs = [
        {"cmd": "gate", "kind": "BS", "dim": 30},
        {"cmd": "gate", "kind": "QND", "dim": 30},
        {"cmd": "gate", "kind": "BS", "dim": 30},
        {"cmd": "breed", "kind": "-", "dim": 30},
        {"cmd": "gate", "kind": "BS", "dim": 40},
        {"cmd": "breed", "kind": "-", "dim": 30},
    ]
    assert harness.cold_flags(jobs) == [True, True, False, True, True, False]


def test_job_lists_have_the_same_shape_for_every_seed():
    for name in WORKLOADS:
        shapes = {
            tuple(sorted((j["cmd"], j["kind"], j["dim"]) for j in build(name, seed)[0]))
            for seed in range(5)
        }
        assert len(shapes) == 1, name
    # job_s.tail is defined on the two many-job workloads only.
    assert harness.tail([0.0] * len(build("single-mode", 0)[0])) is not None
    assert harness.tail([0.0] * len(build("gate-breed", 0)[0])) is not None
    assert harness.tail([0.0] * len(build("frontier", 0)[0])) is None


def test_output_check_rejects_a_perturbed_value(tmp_path):
    ref = {"witness|k": {"expectation": 0.5, "xi_db": -3.0, "gaussian_bound": 1.2}}
    job = {"cmd": "witness", "out": "w.json", "ref": "witness|k"}
    (tmp_path / "w.json").write_text(json.dumps(ref["witness|k"]))
    assert harness.compare(harness.extract(job, tmp_path, None), ref) == []

    perturbed = dict(ref["witness|k"], xi_db=-3.0 * (1 + 1e-6))
    (tmp_path / "w.json").write_text(json.dumps(perturbed))
    errors = harness.compare(harness.extract(job, tmp_path, None), ref)
    assert len(errors) == 1 and "xi_db" in errors[0]

    assert harness.compare({"x": {"n": [1.0, 2.0]}}, {"x": {"n": [1.0, 2.0 + 1e-3]}})
    assert harness.compare({"x": {"rows": 4}}, {"x": {"rows": 5}})
    assert harness.compare({"y": {"rows": 4}}, {"x": {"rows": 4}}) == ["y: no reference value"]


def test_frontier_metadata_digest_ignores_only_wall_time(tmp_path):
    a, b = tmp_path / "a.meta.json", tmp_path / "b.meta.json"
    a.write_text(json.dumps({"seed": 1, "wall_time_s": 1.5}))
    b.write_text(json.dumps({"seed": 1, "wall_time_s": 2.5}))
    assert harness.file_digest(a) == harness.file_digest(b)
    b.write_text(json.dumps({"seed": 2, "wall_time_s": 1.5}))
    assert harness.file_digest(a) != harness.file_digest(b)


def test_raising_job_counts_in_failed_ratio(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    (tmp_path / "pass0").mkdir()
    (tmp_path / "pass0" / "bad.json").write_text(json.dumps({"u": "not a number"}))
    (tmp_path / "pass0" / "s.json").write_text(json.dumps({"dim": 2, "amplitudes": [[1, 0], [0, 0]]}))
    jobs = [
        {"cmd": "opaccuracy", "kind": "-", "dim": 4, "out": "acc.csv", "ref": "acc",
         "args": ["opaccuracy", "--nmax", "4", "--out", "acc.csv"]},
        {"cmd": "gate", "kind": "BS", "dim": 4, "out": "g.json", "ref": "gate",
         "args": ["gate", "--state", "missing.json", "--out", "g.json"]},
        {"cmd": "witness", "kind": "-", "dim": 4, "out": "w.json", "ref": "witness",
         "args": ["witness", "--state", "s.json", "--config", "bad.json", "--out", "w.json"]},
    ]
    done = run.run_pass(0, jobs, [True] * 3, False, {}, hypervolume=None)
    assert "no reference value" in done.failures[0]  # ran, but its output is unchecked
    assert done.failures[1].startswith("exit 2")  # sqewit refused the input
    assert "TypeError" in done.failures[2]  # raised out of the command

    clean = run.Pass(False, 0.0, done.result, [None, *done.failures[1:]], [{}, {}, {}])
    attempted, failed, errors = run.tally([clean, clean], jobs)
    assert (attempted, failed) == (6, 4)
    assert not any("opaccuracy" in e for e in errors)

    changed = run.Pass(False, 0.0, done.result, [None, None, None], [{"a": "1"}, {}, {}])
    assert run.tally([clean, changed], jobs)[1] == 2 + 1  # pass 1 rewrote job 0's file


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frontier", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
