"""Post-selected breeding of grid states and the GKP squeezing witness.

Each breeding round merges two identical copies on a balanced beam splitter
and keeps mode 2 conditioned on measuring p = 0 in mode 1. Output quality is
scored by the grid witness Q0 = 2 sin²(x sqrt(pi)/2) + 2 sin²(p sqrt(pi)),
benchmarked against its numerically minimized Gaussian expectation: a start
grid, then its three best points refined in lockstep (one batch of candidates
per step) by an in-package bounded Nelder-Mead, bitwise scipy 1.17.1's
`minimize(method="Nelder-Mead", bounds=...)`; nothing is imported from scipy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import fock, gates
from .errors import OptimizerFailure, _require
from .fock import FockState
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


@dataclass(frozen=True)
class BreedingRun:
    """Record of a full breeding cascade on identical copies."""

    input: FockState
    outputs_per_round: list[FockState]
    success_norms: list[float]

    @property
    def final(self) -> FockState:
        return self.outputs_per_round[-1] if self.outputs_per_round else self.input


def _breed_rows(rows: np.ndarray, rounds: int, p0_outputs) -> tuple[np.ndarray, np.ndarray, list]:
    """`rounds` breeding steps on all rows at once: each round pairs every surviving
    row a with itself (a ⊗ a, mode 1 major), maps the pairs to their unnormalized
    p = 0 outputs (`p0_outputs`, each row alone) and post-selects them
    (`gates._post_select`). Returns the indices of the rows that survive every
    round, their normalized outputs, and per round the outputs, success norms
    and survival mask of the rows it bred."""
    index, log = np.arange(rows.shape[0]), []
    for _ in range(rounds):
        out = p0_outputs((rows[:, :, None] * rows[:, None, :]).reshape(index.size, rows.shape[1] ** 2))
        norms, kept = gates._post_select(out)
        log.append((out, norms, kept))
        index, rows = index[kept], out[kept] / norms[kept, None]
    return index, rows, log


def breed_protocol(state: FockState, rounds: int) -> BreedingRun:
    """rounds breeding steps, pairing identical copies of the previous output.

    The schedule is the binary tree consuming 2^rounds copies of the input;
    rounds = 0 returns the input unchanged. `_breed_rows` of the one row with
    `fock._bs_p0_outputs`; an annihilated round raises ProjectionAnnihilatedError.
    """
    _require("rounds", rounds, at_least=0, integer=True)
    _, _, log = _breed_rows(state.amps[None], rounds, fock._bs_p0_outputs)
    outcomes = [gates._outcome(out[0], norms[0], kept[0]) for out, norms, kept in log]
    return BreedingRun(state, [outcome.output for outcome in outcomes], [outcome.success_norm for outcome in outcomes])


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
    builds each factor once for the points that share it; `values` composes
    all three per point of a batch. Rows go through stacked matmuls, one
    gemv per row as the 1-D products call, and `fock`'s batch helpers, so
    each value is bitwise the candidate built in one chain through the three
    eigenbases, in whatever batch.
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

    def _displaced(self, rs: np.ndarray, dps: np.ndarray) -> np.ndarray:
        """exp(i dp x) S(r)|0> in the p eigenbasis, a row per dp; rs holds one r or one per dp."""
        seeds = np.exp(1j * rs[:, None] * self.seig.values) * self.s_seed
        squeezed = np.matmul(self.x_inv, np.matmul(self.seig.vectors, seeds[:, :, None]))[:, :, 0]
        vecs = np.matmul(self.xeig.vectors, (np.exp(1j * dps[:, None] * self.xeig.values) * squeezed)[:, :, None])
        return np.matmul(self.p_inv, vecs)[:, :, 0]

    def _scores(self, candidates: np.ndarray) -> np.ndarray:
        """<Q0> on each candidate row (p basis), cropped to dim and normalized."""
        vecs = np.matmul(self.p_rows, candidates[:, :, None])[:, :, 0]
        return fock._quadratic_forms(self.q0, vecs / fock._row_norms(vecs)[:, None])

    def grid_values(self, r: float, dxs: np.ndarray, dps: np.ndarray) -> np.ndarray:
        """The objective at (r, dx, dp) for every dx and dp, in (dx, dp) order."""
        displaced = self._displaced(np.array([r]), dps)
        phases = np.exp(-1j * dxs[:, None] * self.peig.values)
        return self._scores((phases[:, None, :] * displaced[None, :, :]).reshape(-1, displaced.shape[1]))

    def values(self, points: np.ndarray) -> np.ndarray:
        """The objective at each (r, dx, dp) row; `_nelder_mead` asks only for points in the box."""
        r, dx, dp = points.T
        return self._scores(np.exp(-1j * dx[:, None] * self.peig.values) * self._displaced(r, dp))


def _nelder_mead(x0, lower, upper, xatol, fatol, maxiter):
    """Bounded Nelder-Mead (Nelder & Mead, Comput. J. 7, 308 (1965)) as an ask/tell generator.

    It yields lists of points, is sent their values and returns (min f, its
    vertex, converged: tolerances met within maxiter iterations). A port of
    scipy 1.17.1's `_minimize_neldermead` with fixed coefficients, no
    evaluation cap, the default start simplex and bounds: scipy's operations
    in scipy's order on Python floats (start clipped to the box, vertices
    above it reflected inside, every move clipped), so every point asked for
    and the result are bitwise scipy's. Where Python's semantics differ it
    keeps numpy's: the clip sends -0.0 to a 0.0 bound, `np.argsort` orders
    the vertices (it may reorder ties), a NaN fails the convergence test as
    under `np.max`, and the minimum is `np.min`, NaN if any vertex is.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    box = list(zip(map(float, lower), map(float, upper)))

    def clip(point):
        return [lo if v <= lo else hi if v >= hi else v for v, (lo, hi) in zip(point, box)]

    def move(t):
        # (1 + t) xbar - t x_worst; t = -psi is scipy's (1 - psi) xbar + psi x_worst, bitwise.
        return clip([(1 + t) * b - t * w for b, w in zip(xbar, sim[-1])])

    def ordered(sim, fsim):
        ind = np.argsort(fsim).tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    x0 = clip(map(float, x0))
    n = len(x0)
    sim = [x0] + [x0[:k] + [(1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025] + x0[k + 1 :] for k in range(n)]
    sim = [clip([2 * hi - v if v > hi else v for v, (_, hi) in zip(y, box)]) for y in sim]
    # scipy sorts twice before the loop; argsort need not be stable.
    sim, fsim = ordered(*ordered(sim, (yield sim)))
    iterations = 1
    while iterations < maxiter:
        if all(abs(v - b) <= xatol for y in sim[1:] for v, b in zip(y, sim[0])) and all(
            abs(fsim[0] - f) <= fatol for f in fsim[1:]
        ):
            break
        # np.add.reduce over the rows adds them in row order.
        xbar = [reduce(operator.add, column) / n for column in zip(*sim[:-1])]
        xr = move(rho)
        (fxr,) = yield [xr]
        if fxr < fsim[0]:
            xe = move(rho * chi)
            (fxe,) = yield [xe]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # Outside contraction: kept if no worse than the reflection.
                xc = move(psi * rho)
                (fxc,) = yield [xc]
                shrink = not fxc <= fxr
            else:
                # Inside contraction: kept if better than the worst vertex.
                xc = move(-psi)
                (fxc,) = yield [xc]
                shrink = not fxc < fsim[-1]
            if shrink:
                sim[1:] = [clip([b + sigma * (v - b) for v, b in zip(y, sim[0])]) for y in sim[1:]]
                fsim[1:] = yield sim[1:]
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        sim, fsim = ordered(sim, fsim)
    return np.min(fsim), np.array(sim[0]), iterations < maxiter


def _lockstep(values, runs: list) -> list:
    """The results of ask/tell runs in run order: each step scores the points of
    every run still going in one `values` call, and a run leaves when it returns."""
    results = [None] * len(runs)
    asks = {i: next(run) for i, run in enumerate(runs)}
    while asks:
        scores = values(np.array([p for points in asks.values() for p in points])).tolist()
        replies, asks = asks, {}
        for i, points in replies.items():
            told, scores = scores[: len(points)], scores[len(points) :]
            try:
                asks[i] = runs[i].send(told)
            except StopIteration as stop:
                results[i] = stop.value
    return results


def _gaussian_min(q0: np.ndarray) -> float:
    """Minimum of <Q0> over the Gaussian candidates; see `gkp_witness`.

    Scores the 13 x 9 x 7 start grid over (r, dx, dp) as 13 batches of 63
    candidates, one per r (`_CandidateObjective.grid_values`; not all 819
    at once, which keeps the stacks small). The three lowest starts, first
    in grid order among ties, are refined by `_nelder_mead` in lockstep, each
    step one `values` batch; `OptimizerFailure` if none converges.
    """
    objective = _CandidateObjective(q0)
    rs = np.linspace(_R_BOX[0], _R_BOX[1], 13)
    dxs = np.linspace(0.0, _DX_PERIOD, 9, endpoint=False)
    dps = np.linspace(0.0, _DP_PERIOD, 7, endpoint=False)
    values = np.concatenate([objective.grid_values(r, dxs, dps) for r in rs])
    order = np.argsort(values, kind="stable")
    box = (_R_BOX[0], 0.0, 0.0), (_R_BOX[1], _DX_PERIOD, _DP_PERIOD)
    starts = zip(*np.unravel_index(order[:3], (rs.size, dxs.size, dps.size)))
    runs = [_nelder_mead((rs[i], dxs[j], dps[k]), *box, xatol=1e-7, fatol=1e-12, maxiter=2000) for i, j, k in starts]
    results = _lockstep(objective.values, runs)
    best = float(values[order[0]])
    for refined, _, _ in results:
        best = float(refined) if refined < best else best
    if not any(ok for _, _, ok in results):
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


def _gkp_db(rows: np.ndarray) -> list[float]:
    """GKP squeezing in dB of each normalized C-contiguous row against `gkp_witness`: every GKP figure.

    `ratio_db` per value, not np.log10 over an array, which does not match its
    math.log10 for every value; and it warns once per clamped value.
    """
    witness = gkp_witness(rows.shape[1])
    return [ratio_db(value, witness.gaussian_min) for value in fock._quadratic_forms(witness.matrix, rows).tolist()]


def gkp_squeezing_db(state: FockState) -> float:
    """GKP nonlinear squeezing of the state in decibels (negative is better
    than every Gaussian), against `gkp_witness(state.dim)`: `_gkp_db` of one row."""
    return _gkp_db(state.amps[None])[0]


def breeding_report(run: BreedingRun) -> dict:
    """Per-round GKP squeezing and success norms of a breeding cascade.

    Computed values only; the round count is `len(per_round_gkp_db)`, and
    the inputs are the caller's to record.
    """
    input_db, *per_round = _gkp_db(np.array([s.amps for s in (run.input, *run.outputs_per_round)]))
    return {
        "input_gkp_db": input_db,
        "per_round_gkp_db": per_round,
        "success_norms": run.success_norms,
        "gaussian_min_q0": gkp_witness(run.input.dim).gaussian_min,
    }
