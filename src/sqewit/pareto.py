"""From-scratch NSGA-II over pure-state genomes for two-objective frontiers.

Genomes are boxes of 2N real genes in [-1, 1], the real parts of N Fock
amplitudes and then their imaginary parts, normalized into a state
(``_evaluate``). Two frontier problems are built in:

* ``fidelity``: minimize the witness expectation and the virtual
  interaction fidelity simultaneously; the rank-1 front is the worst-case
  fidelity attainable at a given witness value.
* ``gkp``: minimize the witness expectation while maximizing the GKP
  squeezing left after two breeding rounds; the front is the worst-case
  grid quality for a given witness value.

Both objectives are minimized internally; maximized quantities enter with
their sign flipped. Runs are deterministic functions of the seed.

Each generation ranks the 2n parents plus offspring by peeling fronts
(``non_dominated_sort``), and only until the fronts hold the n survivors:
one sort in (f1, f2) order, then one O(m) array step per front over the m
points still unranked. Selection on a frontier run's pools needs a few
fronts, where the whole pool holds tens; a chain, one point per front, is
the worst case, O(n²). The kept fronts' crowding is one array pass for all
of them (``crowding_distance``). The survivors carry their ranks and
crowding into the next tournament, so no generation re-sorts its parents. The n offspring
are scored in one batched pass (``_evaluate``): decoding, the witness
form, the coupler, the <p = 0| conditioning and every breeding round act
on all n states at once, bitwise as they would on each state alone. The
figures, post-selection and breeding are the records' own, each called for all
n rows; only the dense coupler product (``_dense_p0_outputs``) is the frontier's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import breeding, fock, gates, states, witness
from .errors import ContractViolationError, _require
from .witness import WitnessSpec

GENE_LOW = -1.0
GENE_HIGH = 1.0
DECODE_EPS = 1e-9
PROBLEMS = ("fidelity", "gkp")
CROSSOVER_PROB = 0.9  # per pair; each gene then mutates with probability 1 / genes
CROSSOVER_ETA = 15.0  # SBX distribution index
MUTATION_ETA = 20.0  # polynomial-mutation distribution index


@dataclass(frozen=True)
class NsgaConfig:
    """Search hyperparameters; the seed is mandatory for reproducibility."""

    seed: int
    population: int = 200
    generations: int = 500

    def __post_init__(self):
        _require("population", self.population, at_least=2, integer=True)
        if self.population % 2:
            raise ContractViolationError(f"population must be even, got {self.population}")
        _require("generations", self.generations, at_least=0, integer=True)
        _require("seed", self.seed, at_least=0, at_most=2**64 - 1, integer=True)


# ---------------------------------------------------------------------------
# Objective evaluation contexts (heavy operators built once per run)
# ---------------------------------------------------------------------------


def _dense_p0_outputs(bra: np.ndarray, coupler: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Unnormalized <p = 0| on mode 1 of coupler @ each row of ``columns``: the frontier's own step."""
    return np.matmul(bra, np.matmul(coupler, columns[:, :, None]).reshape(-1, bra.size, bra.size))


class _FidelityObjectives:
    """Witness expectation and interaction fidelity of a batch of states."""

    metric_name = "fidelity"

    def __init__(self, spec: WitnessSpec):
        self.w = witness.build_witness(spec)
        self.coupler_cols = np.ascontiguousarray(
            fock.two_mode_coupler("BS", spec.dim)[:, 0 :: spec.dim]
        )  # action on c ⊗ |0>
        self.bra = fock.momentum_eigenbra(spec.dim)
        # Normalized truncation of the ideal target; small frontier
        # dimensions cannot hold it losslessly.
        self.target = states.ideal_gate_target("BS", spec.u, spec.phi, spec.dim).amps

    def batch(self, amps: np.ndarray) -> np.ndarray:
        """(n, 2) objectives of n normalized states, one per row of ``amps``.

        Annihilated gates score ``inf`` fidelity.
        """
        amps = np.ascontiguousarray(amps, dtype=complex)
        out = np.empty((amps.shape[0], 2))
        out[:, 0] = fock._quadratic_forms(self.w, amps)
        outputs = _dense_p0_outputs(self.bra, self.coupler_cols, amps)
        norms, kept = gates._post_select(outputs)
        out[:, 1] = math.inf
        out[kept, 1] = fock._fidelities(self.target, outputs[kept] / norms[kept, None])
        return out

    def metric_value(self, objective_2: float) -> float:
        return objective_2


class _GkpObjectives:
    """Witness expectation and negated GKP dB after breeding, per state."""

    metric_name = "gkp_db"

    def __init__(self, spec: WitnessSpec, rounds: int):
        self.rounds = rounds
        self.w = witness.build_witness(spec)
        self.coupler = fock.two_mode_coupler("BS", spec.dim)
        self.bra = fock.momentum_eigenbra(spec.dim)

    def batch(self, amps: np.ndarray) -> np.ndarray:
        """(n, 2) objectives of n normalized states, one per row of ``amps``.

        The rows breed through ``breeding._breed_rows`` with the dense
        product; a row annihilated in any round scores ``inf``.
        """
        amps = np.ascontiguousarray(amps, dtype=complex)
        out = np.empty((amps.shape[0], 2))
        out[:, 0] = fock._quadratic_forms(self.w, amps)
        rows, bred, _ = breeding._breed_rows(amps, self.rounds, partial(_dense_p0_outputs, self.bra, self.coupler))
        out[:, 1] = math.inf
        out[rows, 1] = [-db for db in breeding._gkp_db(bred)]
        return out

    def metric_value(self, objective_2: float) -> float:
        return -objective_2


def _make_objectives(problem: str, spec: WitnessSpec, breeding_rounds: int):
    if problem == "fidelity":
        return _FidelityObjectives(spec)
    if problem == "gkp":
        return _GkpObjectives(spec, rounds=breeding_rounds)
    raise ContractViolationError(f"unknown problem {problem!r}; expected one of {PROBLEMS}")


# ---------------------------------------------------------------------------
# NSGA-II machinery
# ---------------------------------------------------------------------------


def non_dominated_sort(objectives, fill: int | None = None) -> list[np.ndarray]:
    """The first fronts of n two-objective points, until they hold ``fill`` (all by default).

    Both objectives are minimized: i dominates j when it is no worse in both
    and strictly better in one. Front r holds the points whose dominators
    all lie in fronts 0..r-1, and each front is an array of point indices in
    ascending order (``crowding_distance`` breaks ties by that order).
    Equal points never dominate each other, so duplicates, including
    ``(inf, inf)`` rows, share a front. NaN cannot be ordered and raises
    ``ContractViolationError``.

    Peels one front per step. The points are sorted once by (f1, f2), and a
    run of equal points is one distinct point. Over the distinct points
    still unranked, in that order, a point is dominated exactly when the
    smallest f2 before it is no larger than its own, since every earlier
    distinct point has no larger f1 and differs from it. The first is never
    dominated, so every step ranks at least one point, even on a pool of
    ``(inf, inf)`` rows. That is O(n log n + n·F) for F fronts, so O(n²) at
    worst, a chain of n points with one point per front.
    """
    objs = np.asarray(objectives, dtype=float)
    if objs.ndim != 2 or objs.shape[1] != 2:
        raise ContractViolationError(f"expected an (n, 2) objective array, got shape {objs.shape}")
    if np.isnan(objs).any():
        raise ContractViolationError("objectives must not contain NaN")
    n = objs.shape[0]
    fill = n if fill is None else min(fill, n)
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    f1, f2 = objs[order, 0], objs[order, 1]
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (f1[1:] != f1[:-1]) | (f2[1:] != f2[:-1])
    run_of = np.empty(n, dtype=int)
    run_of[order] = np.cumsum(new_run) - 1
    run_f2, run_size = f2[new_run], np.diff(np.append(np.flatnonzero(new_run), n))
    run_rank = np.full(run_f2.size, n)  # n marks "not ranked"
    rest = np.arange(run_f2.size)
    ranked = fronts = 0
    while ranked < fill and fronts < run_f2.size:  # each step ranks at least one distinct point
        v = run_f2[rest]
        dominated = np.zeros(rest.size, dtype=bool)
        dominated[1:] = np.minimum.accumulate(v)[:-1] <= v[1:]
        front = rest[~dominated]
        run_rank[front] = fronts
        ranked += int(run_size[front].sum())
        fronts += 1
        rest = rest[dominated]
    ranks = run_rank[run_of]
    by_rank = np.argsort(ranks, kind="stable")[:ranked]
    return np.split(by_rank, np.cumsum(np.bincount(ranks[by_rank], minlength=fronts))[:-1]) if ranked else []


def crowding_distance(objectives, sizes) -> np.ndarray:
    """Crowding distances of consecutive fronts of ``sizes`` points, ``objectives`` in front order.

    One front alone is ``crowding_distance(objectives[front], [front.size])``.
    One pass per objective for all fronts: a stable sort by (front, value),
    so ties keep their order in ``objectives``. Each front's ends get +inf,
    and each interior point adds its neighbours' gap over the front's span.
    An objective whose span over a front is zero or infinite adds no gaps
    there, so no distance is NaN. An empty front adds no distances.
    """
    objs = np.asarray(objectives, dtype=float)
    sizes = np.asarray(sizes, dtype=int)
    sizes = sizes[sizes > 0]
    front_of = np.repeat(np.arange(sizes.size), sizes)
    last = np.cumsum(sizes, dtype=int) - 1
    first = last + 1 - sizes
    inner = np.ones(front_of.size, dtype=bool)
    inner[first] = inner[last] = False
    dist = np.zeros(front_of.size)
    for k in range(objs.shape[-1]):
        order = np.lexsort((objs[:, k], front_of))
        v = objs[order, k]
        lo, hi = v[first], v[last]
        span = np.zeros(lo.size)
        wide = lo < hi  # equal infinite ends span nothing, not inf - inf
        span[wide] = hi[wide] - lo[wide]
        dist[order[first]] = np.inf
        dist[order[last]] = np.inf
        s = span[front_of]
        gap = np.flatnonzero(inner & (0.0 < s) & (s < math.inf))
        dist[order[gap]] += (v[gap + 1] - v[gap - 1]) / s[gap]
    return dist


def _rank_and_crowd(objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    fronts = non_dominated_sort(objectives)
    sizes = [front.size for front in fronts]
    idx = np.concatenate(fronts)
    ranks = np.empty(idx.size, dtype=int)
    crowd = np.empty(idx.size, dtype=float)
    ranks[idx] = np.repeat(np.arange(len(sizes)), sizes)
    crowd[idx] = crowding_distance(objectives[idx], sizes)
    return ranks, crowd


def _tournament(rng: np.random.Generator, ranks, crowd) -> np.ndarray:
    # Two shuffled pairings of the (even) population, as in the original crowded
    # tournament: every individual competes exactly twice, and n parents win.
    order = np.concatenate([rng.permutation(ranks.size) for _ in range(2)])
    a, b = order[0::2], order[1::2]
    better_b = (ranks[b] < ranks[a]) | ((ranks[b] == ranks[a]) & (crowd[b] > crowd[a]))
    return np.where(better_b, b, a)


def variation(parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Simulated-binary crossover plus polynomial mutation, clipped to bounds."""
    parents = np.asarray(parents, dtype=float)
    n, genes = parents.shape
    if n % 2:
        raise ContractViolationError("variation expects an even number of parents")
    half = n // 2
    p1 = parents[0::2].copy()
    p2 = parents[1::2].copy()

    do_pair = rng.random(half) < CROSSOVER_PROB
    do_gene = rng.random((half, genes)) < 0.5
    u = rng.random((half, genes))
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (CROSSOVER_ETA + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (CROSSOVER_ETA + 1.0)),
    )
    mask = do_pair[:, None] & do_gene
    c1 = np.where(mask, 0.5 * ((1 + beta) * p1 + (1 - beta) * p2), p1)
    c2 = np.where(mask, 0.5 * ((1 - beta) * p1 + (1 + beta) * p2), p2)
    offspring = np.empty_like(parents)
    offspring[0::2] = c1
    offspring[1::2] = c2

    offspring = np.clip(offspring, GENE_LOW, GENE_HIGH)

    mut_mask = rng.random((n, genes)) < 1.0 / genes
    um = rng.random((n, genes))
    delta = np.where(
        um < 0.5,
        (2.0 * um) ** (1.0 / (MUTATION_ETA + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - um)) ** (1.0 / (MUTATION_ETA + 1.0)),
    )
    offspring = offspring + mut_mask * delta * (GENE_HIGH - GENE_LOW)
    return np.clip(offspring, GENE_LOW, GENE_HIGH)


def _evaluate(genomes: np.ndarray, objective) -> np.ndarray:
    """Objectives of each genome in one batched pass; invalid genomes get ``(inf, inf)``.

    A genome of 2N genes holds the real parts of N Fock amplitudes, then
    their imaginary parts. A genome whose amplitude norm is at most
    ``DECODE_EPS`` is invalid. The valid rows, divided by their norms
    (``np.linalg.norm``'s, bitwise), go to ``objective.batch`` together, so
    nonzero multiples of a genome score alike to rounding.
    """
    dim = genomes.shape[1] // 2
    amps = genomes[:, :dim] + 1j * genomes[:, dim:]
    norms = fock._row_norms(amps)
    valid = norms > DECODE_EPS
    out = np.full((genomes.shape[0], 2), math.inf)
    out[valid] = objective.batch(amps[valid] / norms[valid, None])
    return out


def _select_next(genomes, objectives, target_size):
    """Elitist truncation of the pool to ``target_size`` survivors.

    Returns the survivors' genomes, objectives, ranks and crowding. Fronts
    are peeled only until they hold ``target_size`` points. Every dominator
    of a survivor also survives, so pool ranks are survivor ranks, and whole
    fronts keep their relative order and so their crowding; only the
    truncated front's crowding is recomputed.
    """
    fronts = non_dominated_sort(objectives, target_size)
    sizes = [front.size for front in fronts]
    kept = np.concatenate(fronts)
    crowd = crowding_distance(objectives[kept], sizes)
    cut = kept.size - sizes[-1]  # where the last front starts
    room = target_size - cut
    if sizes[-1] > room:
        # Stable truncation: widest-spaced first, original index breaks ties.
        last = fronts[-1][np.lexsort((fronts[-1], -crowd[cut:]))[:room]]
        kept = np.concatenate([kept[:cut], last])
        crowd = np.concatenate([crowd[:cut], crowding_distance(objectives[last], [room])])
        sizes[-1] = room
    return genomes[kept], objectives[kept], np.repeat(np.arange(len(sizes)), sizes), crowd


@dataclass(frozen=True)
class ParetoPoint:
    """One frontier member: genome, raw objectives, and reporting values."""

    genome: np.ndarray
    objective_1: float  # witness expectation (minimized)
    objective_2: float  # internal second objective (minimized)
    xi_sqe_db: float
    metric_value: float  # named by EvolveResult.metric_name
    crowding: float


@dataclass(frozen=True)
class EvolveResult:
    points: list[ParetoPoint]
    history: np.ndarray  # per-generation best of each internal objective
    metric_name: str  # "fidelity" or "gkp_db"
    evaluations: int


def evolve(
    problem: str,
    spec: WitnessSpec,
    cfg: NsgaConfig,
    breeding_rounds: int = 2,
) -> EvolveResult:
    """Run NSGA-II and return the final rank-1 front sorted by objective 1.

    Objectives are never NaN: genes are clipped to [-1, 1], amplitudes are
    normalized, and invalid genomes and annihilated gates score ``inf``,
    which ``non_dominated_sort`` orders like any other value.
    """
    _require("breeding_rounds", breeding_rounds, at_least=0, integer=True)
    objective = _make_objectives(problem, spec, breeding_rounds)
    bound = witness.gaussian_bound(spec.u, spec.c, spec.k)
    rng = np.random.default_rng(cfg.seed)
    genes = 2 * spec.dim

    genomes = rng.uniform(GENE_LOW, GENE_HIGH, size=(cfg.population, genes))
    objectives = _evaluate(genomes, objective)
    history = [objectives.min(axis=0)]

    ranks, crowd = _rank_and_crowd(objectives)
    for _ in range(cfg.generations):
        offspring = variation(genomes[_tournament(rng, ranks, crowd)], rng)
        off_objs = _evaluate(offspring, objective)
        genomes, objectives, ranks, crowd = _select_next(
            np.vstack([genomes, offspring]),
            np.vstack([objectives, off_objs]),
            cfg.population,
        )
        history.append(objectives.min(axis=0))

    front = np.nonzero(ranks == 0)[0]
    finite = front[np.isfinite(objectives[front]).all(axis=1)]
    order = np.lexsort((finite, objectives[finite, 1], objectives[finite, 0]))
    points = []
    for i in finite[order]:
        z = objectives[i, 0]
        points.append(
            ParetoPoint(
                genome=genomes[i].copy(),
                objective_1=float(z),
                objective_2=float(objectives[i, 1]),
                xi_sqe_db=witness.ratio_db(z, bound.value),
                metric_value=float(objective.metric_value(objectives[i, 1])),
                crowding=float(crowd[i]),
            )
        )
    evaluations = cfg.population * (cfg.generations + 1)
    return EvolveResult(
        points=points, history=np.array(history), metric_name=objective.metric_name, evaluations=evaluations
    )


# ---------------------------------------------------------------------------
# Frontier diagnostics
# ---------------------------------------------------------------------------


def hypervolume(objectives: np.ndarray, reference: np.ndarray) -> float:
    """Dominated 2-D hypervolume against a reference (worst) corner."""
    objs = np.asarray(objectives, dtype=float)
    if objs.size == 0:  # [] as well as an empty (0, 2) array
        return 0.0
    ref = np.asarray(reference, dtype=float)
    objs = objs[(objs[:, 0] < ref[0]) & (objs[:, 1] < ref[1])]
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    hv = 0.0
    best_y = ref[1]
    for x, y in objs[order]:
        if y < best_y:
            hv += (ref[0] - x) * (best_y - y)
            best_y = y
    return float(hv)
