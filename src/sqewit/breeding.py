"""Post-selected breeding of grid states and the GKP squeezing witness.

Each breeding round merges two identical copies on a balanced beam splitter
and keeps mode 2 conditioned on measuring p = 0 in mode 1. Output quality is
scored by the grid witness Q0 = 2 sin²(x sqrt(pi)/2) + 2 sin²(p sqrt(pi)),
benchmarked against its numerically minimized Gaussian expectation. The
minimization refines a start grid with an in-package bounded Nelder-Mead,
bitwise scipy 1.17.1's `minimize(method="Nelder-Mead", bounds=...)`; the
package imports nothing from scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock, gates
from .errors import OptimizerFailure, _require
from .fock import FockState
from .gates import GateOutcome
from .witness import ratio_db

# Levels added above the requested dimension for Q0 and the Gaussian
# candidates, enough for quadrature eigenvalues well past one grid period.
_Q0_PAD = 40

# Gaussian search box: squeezing plus one period of each displacement comb.
_R_BOX = (-3.0, 3.0)
_DX_PERIOD = 2.0 * math.sqrt(math.pi)
_DP_PERIOD = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Breeding protocol
# ---------------------------------------------------------------------------


def breed_round(a: FockState, b: FockState) -> GateOutcome:
    """One breeding step: balanced beam splitter, then p = 0 on mode 1."""
    return gates.couple_and_condition(a, b, "BS")


@dataclass(frozen=True)
class BreedingRun:
    """Record of a full breeding cascade on identical copies."""

    input: FockState
    outputs_per_round: list[FockState]
    success_norms: list[float]

    @property
    def final(self) -> FockState:
        return self.outputs_per_round[-1] if self.outputs_per_round else self.input


def breed_protocol(state: FockState, rounds: int) -> BreedingRun:
    """rounds breeding steps, pairing identical copies of the previous output.

    The schedule is the binary tree consuming 2^rounds copies of the input;
    rounds = 0 returns the input unchanged.
    """
    _require("rounds", rounds, at_least=0, integer=True)
    outputs: list[FockState] = []
    norms: list[float] = []
    current = state
    for _ in range(rounds):
        outcome = breed_round(current, current)
        current = outcome.output
        outputs.append(current)
        norms.append(outcome.success_norm)
    return BreedingRun(input=state, outputs_per_round=outputs, success_norms=norms)


# ---------------------------------------------------------------------------
# Grid witness
# ---------------------------------------------------------------------------


def build_q0(dim: int) -> np.ndarray:
    """Grid witness 2 sin²(x sqrt(pi)/2) + 2 sin²(p sqrt(pi)), cropped to dim.

    Built in a padded dimension and returned read-only; the spectrum lies
    in [0, 4] up to truncation-level rounding. Uncached: `gkp_witness`
    holds the matrix per dimension. The x and p spectra come from
    `fock.generator_spectrum`, shared with the Gaussian candidates.
    """
    _require("dim", dim, at_least=1, integer=True)
    big = dim + _Q0_PAD
    term_x = fock.matrix_function(
        fock.generator_spectrum("x", big), lambda lam: 2.0 * np.sin(lam * math.sqrt(math.pi) / 2.0) ** 2
    )
    term_p = fock.matrix_function(
        fock.generator_spectrum("p", big), lambda lam: 2.0 * np.sin(lam * math.sqrt(math.pi)) ** 2
    )
    q0 = fock.crop(term_x, dim) + fock.crop(term_p, dim)
    q0.flags.writeable = False
    return q0


class _CandidateObjective:
    """<Q0> on the Gaussian candidates, built in three reusable factors.

    The candidate at (r, dx, dp) is exp(-i dx p) exp(i dp x) S(r)|0>, built
    at dim + _Q0_PAD levels from the x, p and squeeze spectra (`xeig`,
    `peig`, `seig`; `s_seed` is the vacuum in the squeeze eigenbasis) and
    cropped to dim. The squeezed vacuum depends on r alone, its x-displaced
    image on (r, dp), and only the last step, a gemv on the first dim rows
    of the p eigenvectors, on dx. Two routes: the start grid (`grid_values`)
    builds each factor once for all the points that share it; calling the
    object composes all three at one point, for the Nelder-Mead refinement.
    Every value is bitwise equal to building the candidate in one chain
    through the three eigenbases.
    """

    def __init__(self, q0: np.ndarray):
        self.q0 = q0
        dim = q0.shape[0]
        big = dim + _Q0_PAD
        self.xeig, self.peig, self.seig = (fock.generator_spectrum(name, big) for name in fock.GENERATORS)
        self.s_seed = self.seig.vectors.conj().T @ fock.vacuum(big).amps
        self.x_inv = self.xeig.vectors.conj().T
        self.p_inv = self.peig.vectors.conj().T
        self.p_rows = self.peig.vectors[:dim]

    def squeezed_in_x(self, r: float) -> np.ndarray:
        """S(r)|0> in the x eigenbasis."""
        vec = self.seig.vectors @ (np.exp(1j * r * self.seig.values) * self.s_seed)
        return self.x_inv @ vec

    def grid_values(self, r: float, dxs: np.ndarray, dps: np.ndarray) -> np.ndarray:
        """The objective at (r, dx, dp) for every dx and dp, in (dx, dp) order, bitwise.

        The displaced vectors (one per dp) and the cropped candidates (one
        per (dx, dp)) are stacks of rows through stacked matmuls, one gemv
        per row as the 1-D products call; `fock`'s batch helpers then
        normalize and score them, bitwise `FockState` and `fock.expectation`.
        """
        squeezed = self.squeezed_in_x(r)
        vecs = np.matmul(self.xeig.vectors, (np.exp(1j * dps[:, None] * self.xeig.values) * squeezed)[:, :, None])
        displaced = np.matmul(self.p_inv, vecs)[:, :, 0]
        phases = np.exp(-1j * dxs[:, None] * self.peig.values)
        candidates = (phases[:, None, :] * displaced[None, :, :]).reshape(-1, displaced.shape[1])
        vecs = np.matmul(self.p_rows, candidates[:, :, None])[:, :, 0]
        return fock._quadratic_forms(self.q0, vecs / fock._row_norms(vecs)[:, None])

    def __call__(self, params) -> float:
        """<Q0> at (r, dx, dp); `_nelder_mead` keeps every point in the box."""
        r, dx, dp = params
        displaced = self.p_inv @ (self.xeig.vectors @ (np.exp(1j * dp * self.xeig.values) * self.squeezed_in_x(r)))
        vec = self.p_rows @ (np.exp(-1j * dx * self.peig.values) * displaced)
        return fock.expectation(self.q0, FockState(vec))


def _nelder_mead(fun, x0, lower, upper, xatol, fatol, maxiter):
    """Bounded Nelder-Mead (Nelder & Mead, Comput. J. 7, 308 (1965)).

    Returns (min f, its vertex, converged). A port of scipy 1.17.1's
    `_minimize_neldermead` for the one configuration used here: fixed
    coefficients, no evaluation cap, the default start simplex, bounds. It
    repeats scipy's operations in scipy's order (start clipped to the box,
    vertices above it reflected inside, every move clipped, argsort plus
    take), so every evaluated point and the result are bitwise scipy's.
    Converged means the tolerances were met within maxiter iterations.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.array([fun(v) for v in sim], dtype=float)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # scipy sorts twice before the loop; argsort need not be stable.
    sim, fsim = ordered(*ordered(sim, fsim))
    iterations = 1
    while iterations < maxiter:
        if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = np.clip((1 + rho) * xbar - rho * sim[-1], lower, upper)
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lower, upper)
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # Outside contraction: kept if no worse than the reflection.
                xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lower, upper)
                fxc = fun(xc)
                shrink = not fxc <= fxr
            else:
                # Inside contraction: kept if better than the worst vertex.
                xc = np.clip((1 - psi) * xbar + psi * sim[-1], lower, upper)
                fxc = fun(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lower, upper)
                    fsim[j] = fun(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        sim, fsim = ordered(sim, fsim)
    return np.min(fsim), sim[0], iterations < maxiter


def _gaussian_min(q0: np.ndarray) -> float:
    """Minimum of <Q0> over the Gaussian candidates; see `gkp_witness`.

    Scores the 13 x 9 x 7 start grid over (r, dx, dp) as 13 batches of 63
    candidates, one per r (`_CandidateObjective.grid_values`), each value
    bitwise the per-point chain; one batch per r, not all 819 at once, keeps
    the stacked vectors small. The three lowest starts, first in grid order
    among ties, are refined by `_nelder_mead`; it raises `OptimizerFailure`
    when none converges.
    """
    objective = _CandidateObjective(q0)
    rs = np.linspace(_R_BOX[0], _R_BOX[1], 13)
    dxs = np.linspace(0.0, _DX_PERIOD, 9, endpoint=False)
    dps = np.linspace(0.0, _DP_PERIOD, 7, endpoint=False)
    values = np.concatenate([objective.grid_values(r, dxs, dps) for r in rs])
    order = np.argsort(values, kind="stable")

    lower = np.array([_R_BOX[0], 0.0, 0.0])
    upper = np.array([_R_BOX[1], _DX_PERIOD, _DP_PERIOD])
    best = float(values[order[0]])
    converged = False
    for j in order[:3]:
        i_r, i_dx, i_dp = np.unravel_index(j, (rs.size, dxs.size, dps.size))
        start = np.array([rs[i_r], dxs[i_dx], dps[i_dp]])
        refined, _, ok = _nelder_mead(objective, start, lower, upper, xatol=1e-7, fatol=1e-12, maxiter=2000)
        converged = converged or ok
        if refined < best:
            best = float(refined)
    if not converged:
        raise OptimizerFailure("no Gaussian-benchmark refinement converged from any start")
    return best


@dataclass(frozen=True)
class GkpWitness:
    """Grid witness matrix with its Gaussian benchmark at one dimension."""

    matrix: np.ndarray
    gaussian_min: float


@lru_cache(maxsize=16)
def gkp_witness(dim: int) -> GkpWitness:
    """Q0 at dim and its Gaussian benchmark, built once per dimension.

    The benchmark is the minimum of <Q0> over squeezed displaced vacuum
    states: a multi-start grid over squeezing in [-3, 3] and displacements
    over one comb period in each quadrature, whose three best points are
    refined by the in-package bounded Nelder-Mead (`_nelder_mead`, bitwise
    scipy 1.17.1's). States are built numerically at the padded dimension
    and cropped, so the benchmark shares the truncation behavior of
    everything it is compared against.
    """
    q0 = build_q0(dim)
    return GkpWitness(matrix=q0, gaussian_min=_gaussian_min(q0))


def gaussian_min_q0(dim: int) -> float:
    """`gkp_witness(dim).gaussian_min`; only `perfbench/baseline.py` calls it."""
    return gkp_witness(dim).gaussian_min


def gkp_squeezing_db(state: FockState) -> float:
    """GKP nonlinear squeezing of the state in decibels (negative is better
    than every Gaussian), against `gkp_witness(state.dim)`."""
    witness = gkp_witness(state.dim)
    return ratio_db(fock.expectation(witness.matrix, state), witness.gaussian_min)


def breeding_report(run: BreedingRun) -> dict:
    """Per-round GKP squeezing and success norms of a breeding cascade.

    Computed values only; the round count is `len(per_round_gkp_db)`, and
    the inputs are the caller's to record.
    """
    return {
        "input_gkp_db": gkp_squeezing_db(run.input),
        "per_round_gkp_db": [gkp_squeezing_db(s) for s in run.outputs_per_round],
        "success_norms": run.success_norms,
        "gaussian_min_q0": gkp_witness(run.input.dim).gaussian_min,
    }
