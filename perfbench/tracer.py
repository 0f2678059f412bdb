"""In-memory span tracer and the instrumentation of sqewit's public functions.

Spans are recorded from outside the package: `instrument` replaces module
attributes with timing wrappers, so calls made through the module namespace
(which is how every sqewit module calls its siblings and itself) are seen.
`src/` is never modified. A function that a later change deletes is simply
not wrapped, and its layer reads as zero.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

MB = float(1 << 20)
MEMORY_LAYERS = ("fock.coupler", "gates")  # the two-mode path


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    job: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    peak_bytes: int = 0  # traced allocation peak above the span's entry level
    _base: int = 0
    _max: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on one thread, kept in memory until the pass ends.

    Spans named in `memory_layers` also record their `tracemalloc` peak.
    Allocation tracing runs only while such a span is open, so it does not
    slow the layers whose time is measured but whose memory is not.
    """

    def __init__(self, clock=time.perf_counter, memory_layers: tuple[str, ...] = ()):
        self.clock = clock
        self.memory_layers = memory_layers
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.job = -1
        self._stack: list[int] = []
        self._memory: list[Span] = []  # open memory-tracked spans, outermost first

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, parent=parent, job=self.job, start=0.0)
        if name in self.memory_layers:
            if self._memory:
                outer = self._memory[-1]
                outer._max = max(outer._max, tracemalloc.get_traced_memory()[1])
            else:
                tracemalloc.start()
            tracemalloc.reset_peak()
            span._base = span._max = tracemalloc.get_traced_memory()[0]
            self._memory.append(span)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        if self._memory and self._memory[-1] is span:
            self._memory.pop()
            span._max = max(span._max, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = span._max - span._base
            if self._memory:
                outer = self._memory[-1]
                outer._max = max(outer._max, span._max)
            else:
                tracemalloc.stop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def top_level_time(spans: list[Span], names: set[str], keep=lambda s: True) -> float:
    """Summed duration of spans in `names` not nested inside another such span."""
    total = 0.0
    for s in spans:
        if s.name not in names or not keep(s):
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


# ---------------------------------------------------------------------------
# Wrapping sqewit's public functions
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, owner, attr: str, name: str, before=None, after=None) -> None:
    original = getattr(owner, attr, None)
    if original is None:
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before else None
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(span)
        if after:
            after(span, state, args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def _misses(fn) -> int | None:
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def _cache_delta(cache_fn):
    """before/after hooks marking span.attrs['built'] from an lru_cache's misses.

    Without a cache every call computes, so every call counts as a build.
    """

    def before(args, kwargs):
        return _misses(cache_fn) if cache_fn is not None else None

    def after(span, state, args, kwargs, result):
        span.attrs["built"] = state is None or _misses(cache_fn) > state

    return before, after


def instrument(tracer: Tracer, sqewit) -> None:
    """Wrap the public functions of every sqewit layer with spans and counters."""
    fock, witness, states = sqewit.fock, sqewit.witness, sqewit.states
    gates, breeding, pareto, serialize = sqewit.gates, sqewit.breeding, sqewit.pareto, sqewit.serialize

    before, built = _cache_delta(getattr(fock, "_coupler_cached", None))

    def coupler_after(span, state, args, kwargs, result):
        built(span, state, args, kwargs, result)
        span.attrs["dim"] = int(args[1] if len(args) > 1 else kwargs["dim"])

    _wrap(tracer, fock, "two_mode_coupler", "fock.coupler", before, coupler_after)
    for attr in ("hermitian_eig", "matrix_function"):
        _wrap(tracer, fock, attr, "fock.eigh")
    _wrap(tracer, fock, "displacement_x_exact", "fock.disp_exact")
    for attr in ("displacement_x", "displacement_p", "squeeze"):
        _wrap(tracer, fock, attr, "fock.padded_gate")
    _wrap(tracer, fock, "wigner", "fock.wigner")

    _wrap(tracer, witness, "build_witness", "witness.build",
          *_cache_delta(getattr(witness, "build_witness", None)))
    _wrap(tracer, witness, "momentum_comb", "witness.comb")
    _wrap(tracer, witness, "gaussian_bound", "witness.gaussian_bound")
    _wrap(tracer, witness, "witness_report", "witness.report")
    _wrap(tracer, witness, "accuracy_scan", "witness.accuracy")

    _wrap(tracer, states, "ground_state_sweep", "states.sweep")
    _wrap(tracer, states, "optimal_sqe_approximation", "states.ground")
    _wrap(tracer, states, "squeezed_cat", "states.cat")

    def gate_after(span, state, args, kwargs, result):
        span.attrs["dim"] = int(args[0].dim)

    _wrap(tracer, gates, "gate_report", "gates.report")
    _wrap(tracer, gates, "couple_and_condition", "gates", after=gate_after)

    _wrap(tracer, breeding, "breed_protocol", "breeding.protocol")
    _wrap(tracer, breeding, "breed_round", "breeding.round")
    _wrap(tracer, breeding, "gkp_witness", "breeding.gkp_witness")
    _wrap(tracer, breeding, "gkp_squeezing_db", "breeding.gkp_db")
    _wrap(tracer, breeding, "build_q0", "breeding.q0",
          *_cache_delta(getattr(breeding, "build_q0", None)))
    _wrap(tracer, breeding, "gaussian_min_q0", "breeding.gaussian_min")

    def evolve_after(span, state, args, kwargs, result):
        span.attrs["evaluations"] = int(result.evaluations)

    _wrap(tracer, pareto, "evolve", "pareto.eval", after=evolve_after)
    _wrap(tracer, pareto, "non_dominated_sort", "pareto.sort")
    _wrap(tracer, pareto, "crowding_distance", "pareto.crowding")
    _wrap(tracer, pareto, "variation", "pareto.variation")

    def write_after(span, state, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[0])

    for attr in ("save_state", "write_csv", "dump_json"):
        _wrap(tracer, serialize, attr, "serialize.write", after=write_after)
    _wrap(tracer, serialize, "load_state", "serialize.load")

    # Counters on functions too fine-grained for spans.
    decode = getattr(pareto, "decode", None)
    if decode is not None:

        @functools.wraps(decode)
        def counted_decode(genome):
            state = decode(genome)
            tracer.count("pareto.decode")
            if state is None:
                tracer.count("pareto.decode.invalid")
            return state

        pareto.decode = counted_decode

    expectation = getattr(fock, "expectation", None)
    if expectation is not None:

        @functools.wraps(expectation)
        def counted_expectation(op, state):
            if tracer.inside("breeding.gaussian_min"):
                tracer.count("breeding.gaussian_min.expectations")
            return expectation(op, state)

        fock.expectation = counted_expectation


# ---------------------------------------------------------------------------
# Per-pass layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, cold: list[bool], run_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass (see BENCHMARK.json `per_layer`)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t

    def named(name):
        return [s for s in spans if s.name == name]

    m: dict[str, float] = {}
    for layer in (
        "fock.eigh", "fock.disp_exact", "fock.padded_gate", "witness.build",
        "states.ground", "states.cat", "gates", "pareto.sort",
    ):
        m[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in (
        "fock.eigh", "fock.disp_exact", "fock.padded_gate", "fock.wigner",
        "witness.build", "witness.comb", "witness.gaussian_bound", "states.ground",
        "states.cat", "gates", "breeding.round", "breeding.gkp_db", "breeding.q0",
        "breeding.gaussian_min", "pareto.sort", "pareto.crowding", "pareto.variation",
        "pareto.eval", "serialize.write", "serialize.load", "cli",
    ):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    couplers = named("fock.coupler")
    builds = [s for s in couplers if s.attrs.get("built")]
    m["fock.coupler.builds"] = len(builds)
    m["fock.coupler.cache_hits"] = len(couplers) - len(builds)
    m["fock.coupler.build_s"] = sum(s.duration for s in builds)
    m["fock.coupler.bytes"] = sum(16 * s.attrs["dim"] ** 4 for s in builds)
    m["fock.coupler.peak_alloc_mb"] = max((s.peak_bytes for s in builds), default=0) / MB

    m["witness.build.cache_hits"] = sum(1 for s in named("witness.build") if not s.attrs.get("built"))

    contractions = named("gates")
    m["gates.matvec_bytes"] = sum(
        16 * s.attrs["dim"] ** 4 + 32 * s.attrs["dim"] ** 2 for s in contractions if "dim" in s.attrs
    )
    annihilated = sum(1 for s in contractions if s.attrs.get("error") == "ProjectionAnnihilatedError")
    m["gates.annihilated_ratio"] = annihilated / len(contractions) if contractions else 0.0
    m["gates.peak_alloc_mb"] = (
        statistics.median(s.peak_bytes for s in contractions) / MB if contractions else 0.0
    )

    m["breeding.rounds"] = calls.get("breeding.round", 0)
    m["breeding.q0.builds"] = sum(1 for s in named("breeding.q0") if s.attrs.get("built"))
    m["breeding.gaussian_min.calls"] = calls.get("breeding.gaussian_min", 0)
    m["breeding.gaussian_min.expectations"] = tracer.counters.get("breeding.gaussian_min.expectations", 0)

    m["pareto.generations"] = calls.get("pareto.variation", 0)
    m["pareto.evaluations"] = sum(s.attrs.get("evaluations", 0) for s in named("pareto.eval"))
    decoded = tracer.counters.get("pareto.decode", 0)
    m["pareto.invalid_ratio"] = tracer.counters.get("pareto.decode.invalid", 0) / decoded if decoded else 0.0
    m["pareto.generation_s.p50"] = generation_p50(spans)

    m["serialize.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in named("serialize.write"))

    jobs = named("cli")
    covered = sum(s.duration - t for s, t in zip(spans, selfs) if s.name == "cli")
    m["trace.run_s"] = run_s
    m["trace.coverage"] = covered / run_s if run_s > 0 else 0.0
    m["run.sort_share"] = m["pareto.sort.self_s"] / run_s if run_s > 0 else 0.0
    m["run.eval_share"] = m["pareto.eval.self_s"] / run_s if run_s > 0 else 0.0

    cold_jobs = {s.job for s in jobs if cold[s.job]}
    cold_total = sum(s.duration for s in jobs if s.job in cold_jobs)

    def cold_share(names, keep=lambda s: True):
        if cold_total <= 0:
            return 0.0
        return top_level_time(spans, names, lambda s: s.job in cold_jobs and keep(s)) / cold_total

    m["cold_job.coupler_build_share"] = cold_share({"fock.coupler"}, lambda s: s.attrs.get("built"))
    m["cold_job.gauss_target_share"] = cold_share({"states.cat"})
    m["cold_job.q0_bench_share"] = cold_share({"breeding.q0", "breeding.gaussian_min"})

    def warm_share(name):
        warm = {s.job for s in named(name) if not s.attrs.get("built")}
        return len(warm) / len(jobs) if jobs else 0.0

    m["cache.warm_coupler_job_share"] = warm_share("fock.coupler")
    m["cache.warm_witness_job_share"] = warm_share("witness.build")
    return m


def generation_p50(spans: list[Span]) -> float:
    """Median interval between successive generations (variation calls) of one run."""
    starts: dict[int, list[float]] = {}
    for s in spans:
        if s.name != "pareto.variation":
            continue
        p = s.parent
        while p >= 0 and spans[p].name != "pareto.eval":
            p = spans[p].parent
        starts.setdefault(p, []).append(s.start)
    gaps = [b - a for seq in starts.values() for a, b in zip(seq, seq[1:])]
    return statistics.median(gaps) if gaps else 0.0
