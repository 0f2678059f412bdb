"""Independent references that tests compare sqewit against; no package code calls them.

Each function spells out one quantity the package computes another way:

- `coupler_generator`: the Hermitian two-mode generator, as one dense
  Kronecker product (the package exponentiates it by photon sector or in
  the x and p eigenbases).
- `position_wavefunction`: <x|psi> on a grid, from the Hermite functions.
- `even_cat_expectation_closed_form`: the k -> infinity witness expectation
  on the ideal even squeezed cat.
- `decode`: one genome to one state (`pareto._evaluate` decodes a whole
  generation at once).
- `dominated_front_points`: the points of a reported front that a known
  state beats in both objectives.
- `tournament`: NSGA-II's crowded binary tournament as shuffled pairings
  drawn until `picks` winners are in (`pareto._tournament` draws exactly
  two for a population of winners).
- `comb_diagonal_per_level_cuts`: the exact comb diagonal with each level
  summed over its own cut and its own Hermite table
  (`witness.comb_diagonal_exact` sums every level over the cut of the
  deepest).
"""

from __future__ import annotations

import math

import numpy as np

from sqewit import fock, pareto
from sqewit.errors import ContractViolationError, _require
from sqewit.fock import FockState


def coupler_generator(kind: str, dim: int) -> np.ndarray:
    """Hermitian generator of the requested Gaussian coupling.

    QND couples as x1*p2; BS as (pi/4)(p1*x2 - p2*x1). Mode-1 major
    Kronecker composition.
    """
    fock._check_coupler_args(kind, dim)
    x, p = fock.quadratures(dim)
    if kind == "QND":
        return np.kron(x, p)
    return (np.pi / 4.0) * (np.kron(p, x) - np.kron(x, p))


def position_wavefunction(state: FockState, xs: np.ndarray) -> np.ndarray:
    """<x|psi> on a grid (real Hermite-function expansion)."""
    phi = fock.hermite_functions(state.dim - 1, xs)
    return state.amps @ phi.astype(complex)


def even_cat_expectation_closed_form(u: float, r: float) -> float:
    """Witness expectation on the ideal even squeezed cat, in closed form.

    This is the k -> infinity value: the projector comb vanishes on even
    cats, so only the position part (x² - u²)² remains. The sin^2k comb of
    finite k does not vanish there, and `witness.build_witness` at finite k
    adds c * <comb_k> on top (0.060 to 0.063 at u = 2, c = 10, k = 100,
    r <= 1.2).

    Decreasing in r and tending to zero as r grows; the exponential inner
    term is branched to its asymptotic form once e^{2r} u² overflows exp.
    """
    _require("u", u)
    _require("r", r)
    t = math.exp(2.0 * r) * u * u
    if t > 700.0:
        interference = 0.0
    else:
        interference = 4.0 * t * (t - 3.0) / (math.exp(t) + 1.0)
    return (interference + 8.0 * t + 3.0) / (4.0 * math.exp(4.0 * r))


def decode(genome: np.ndarray) -> FockState | None:
    """Genome -> normalized state; None marks a (near-)zero invalid genome.

    Decoding is scale-invariant: any nonzero multiple of a genome yields
    the same state.
    """
    genome = np.asarray(genome, dtype=float)
    if genome.ndim != 1 or genome.size % 2:
        raise ContractViolationError(f"genome must hold 2N real genes, got shape {genome.shape}")
    dim = genome.size // 2
    amps = genome[:dim] + 1j * genome[dim:]
    if np.linalg.norm(amps) <= pareto.DECODE_EPS:
        return None
    return FockState(amps)


def dominated_front_points(front_objs: np.ndarray, challenger_objs: np.ndarray) -> np.ndarray:
    """Indices of front points strictly dominated by any challenger.

    A nonempty result flags an under-converged frontier run: a known
    feasible state beats a reported frontier point in both objectives.
    """
    f = np.asarray(front_objs, dtype=float)
    c = np.asarray(challenger_objs, dtype=float)
    le = (c[:, None, :] <= f[None, :, :]).all(axis=2)
    lt = (c[:, None, :] < f[None, :, :]).any(axis=2)
    return np.nonzero((le & lt).any(axis=0))[0]


def tournament(rng: np.random.Generator, ranks, crowd, picks: int) -> np.ndarray:
    """`picks` winners of shuffled pairings: lower rank wins, then larger crowding."""
    n = ranks.size
    winners = []
    while len(winners) < picks:
        order = rng.permutation(n)
        a, b = order[0::2], order[1::2]
        better_b = (ranks[b] < ranks[a]) | ((ranks[b] == ranks[a]) & (crowd[b] > crowd[a]))
        winners.extend(np.where(better_b, b, a).tolist())
    return np.array(winners[:picks], dtype=int)


def comb_diagonal_per_level_cuts(u: float, n_max: int) -> np.ndarray:
    """Diagonal of the phi = 0 projector comb, level n summed over j in [1 - c(n), c(n)].

    c(n) keeps every omitted term of level n below the 1e-12 Hermite tail
    bound: the turning point sqrt(2n + 1) plus a 10-unit margin.
    """
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        cut = int(math.ceil(2.0 * u * (math.sqrt(2.0 * n + 1.0) + 10.0) / (2.0 * math.pi) + 0.5)) + 1
        p_j = (2.0 * np.arange(1 - cut, cut + 1) - 1.0) * np.pi / (2.0 * u)
        phi_n = fock.hermite_functions(n, p_j)[n]
        out[n] = np.sum(phi_n * phi_n)
    return out
