"""Post-selected breeding of grid states and the GKP squeezing witness.

Each breeding round merges two identical copies on a balanced beam splitter
and keeps mode 2 conditioned on measuring p = 0 in mode 1. Output quality is
scored by the grid witness Q0 = 2 sin²(x sqrt(pi)/2) + 2 sin²(p sqrt(pi)),
benchmarked against its numerically minimized Gaussian expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from . import fock, gates
from .errors import ContractViolationError, OptimizerFailure
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
    rounds: int
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
    if rounds < 0:
        raise ContractViolationError(f"rounds must be >= 0, got {rounds}")
    outputs: list[FockState] = []
    norms: list[float] = []
    current = state
    for _ in range(rounds):
        outcome = breed_round(current, current)
        current = outcome.output
        outputs.append(current)
        norms.append(outcome.success_norm)
    return BreedingRun(input=state, rounds=rounds, outputs_per_round=outputs, success_norms=norms)


# ---------------------------------------------------------------------------
# Grid witness
# ---------------------------------------------------------------------------


def build_q0(dim: int) -> np.ndarray:
    """Grid witness 2 sin²(x sqrt(pi)/2) + 2 sin²(p sqrt(pi)), cropped to dim.

    Built in a padded dimension and returned read-only; the spectrum lies
    in [0, 4] up to truncation-level rounding. Uncached: `gkp_witness`
    holds the matrix per dimension.
    """
    x, p = fock.quadratures(dim + _Q0_PAD)
    term_x = fock.matrix_function(x, lambda lam: 2.0 * np.sin(lam * math.sqrt(math.pi) / 2.0) ** 2)
    term_p = fock.matrix_function(p, lambda lam: 2.0 * np.sin(lam * math.sqrt(math.pi)) ** 2)
    q0 = fock.crop(term_x, dim) + fock.crop(term_p, dim)
    q0.flags.writeable = False
    return q0


def _gaussian_candidate_weights(dim: int):
    """Spectral machinery for squeezed-displaced vacuum candidates."""
    big = dim + _Q0_PAD
    x, p = fock.quadratures(big)
    xeig = fock.hermitian_eig(x)
    peig = fock.hermitian_eig(p)
    seig = fock.hermitian_eig(fock._squeeze_generator(big))
    seed = np.zeros(big, dtype=complex)
    seed[0] = 1.0
    s_seed = seig.vectors.conj().T @ seed
    return xeig, peig, seig, s_seed


def _make_candidate(params, dim, xeig, peig, seig, s_seed) -> FockState:
    r, dx, dp = params
    vec = seig.vectors @ (np.exp(1j * r * seig.values) * s_seed)
    vec = xeig.vectors @ (np.exp(1j * dp * xeig.values) * (xeig.vectors.conj().T @ vec))
    vec = peig.vectors @ (np.exp(-1j * dx * peig.values) * (peig.vectors.conj().T @ vec))
    return FockState(vec[:dim])


def _gaussian_min(q0: np.ndarray) -> float:
    dim = q0.shape[0]
    machinery = _gaussian_candidate_weights(dim)

    def objective(params) -> float:
        r = min(max(params[0], _R_BOX[0]), _R_BOX[1])
        state = _make_candidate((r, params[1], params[2]), dim, *machinery)
        return fock.expectation(q0, state)

    rs = np.linspace(_R_BOX[0], _R_BOX[1], 13)
    dxs = np.linspace(0.0, _DX_PERIOD, 9, endpoint=False)
    dps = np.linspace(0.0, _DP_PERIOD, 7, endpoint=False)
    grid = [(r, dx, dp) for r in rs for dx in dxs for dp in dps]
    values = np.array([objective(g) for g in grid])
    order = np.argsort(values, kind="stable")

    best = float(values[order[0]])
    converged = False
    for j in order[:3]:
        res = minimize(
            objective,
            x0=np.array(grid[int(j)]),
            method="Nelder-Mead",
            bounds=[_R_BOX, (0.0, _DX_PERIOD), (0.0, _DP_PERIOD)],
            options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 2000},
        )
        converged = converged or bool(res.success)
        if res.fun < best:
            best = float(res.fun)
    if not converged:
        raise OptimizerFailure("no Gaussian-benchmark refinement converged from any start")
    return best


@dataclass(frozen=True)
class GkpWitness:
    """Grid witness matrix with its Gaussian benchmark at one dimension."""

    dim: int
    matrix: np.ndarray
    gaussian_min: float


@lru_cache(maxsize=16)
def gkp_witness(dim: int) -> GkpWitness:
    """Q0 at dim and its Gaussian benchmark, built once per dimension."""
    q0 = build_q0(dim)
    return GkpWitness(dim=dim, matrix=q0, gaussian_min=_gaussian_min(q0))


def gaussian_min_q0(dim: int) -> float:
    """Minimum grid-witness expectation over squeezed displaced vacuum states.

    Multi-start grid over squeezing in [-3, 3] and displacements over one
    comb period in each quadrature, refined by Nelder-Mead. States are
    built numerically at the padded dimension and cropped, so the benchmark
    shares the truncation behavior of everything it is compared against.
    """
    return gkp_witness(dim).gaussian_min


def gkp_squeezing_db(state: FockState, witness: GkpWitness | None = None) -> float:
    """GKP nonlinear squeezing of the state in decibels (negative is better
    than every Gaussian)."""
    if witness is None:
        witness = gkp_witness(state.dim)
    if witness.dim != state.dim:
        raise ContractViolationError(
            f"state dimension {state.dim} does not match witness dimension {witness.dim}"
        )
    return ratio_db(fock.expectation(witness.matrix, state), witness.gaussian_min)


def breeding_report(run: BreedingRun) -> dict:
    """Per-round GKP squeezing and success norms of a breeding cascade."""
    wit = gkp_witness(run.input.dim)
    return {
        "rounds": run.rounds,
        "dim": run.input.dim,
        "input_gkp_db": gkp_squeezing_db(run.input, wit),
        "per_round_gkp_db": [gkp_squeezing_db(s, wit) for s in run.outputs_per_round],
        "success_norms": run.success_norms,
        "gaussian_min_q0": wit.gaussian_min,
    }
