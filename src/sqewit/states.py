"""State families: squeezed cats, optimal witness ground states, gate targets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, witness
from .errors import ContractViolationError, TruncationLossError, _require
from .fock import FockState
from .witness import WitnessSpec

TRUNCATION_LOSS_MAX = 1e-4


@dataclass(frozen=True)
class CatSpec:
    """Squeezed-cat parameters: displacement u, squeezing r, phase phi, dim."""

    u: float
    r: float
    phi: float
    dim: int

    def __post_init__(self):
        for name in ("u", "r", "phi"):
            _require(name, getattr(self, name))
        _require("dim", self.dim, at_least=2, integer=True)


def squeezed_cat(spec: CatSpec, max_loss: float = TRUNCATION_LOSS_MAX) -> FockState:
    """Superposition (D(u) + e^{i phi} D(-u)) S(r) |0> cropped to spec.dim.

    Built in a padded dimension with the same displacement and squeeze
    matrices used elsewhere in the package, then cropped and renormalized.
    Those gates pad again, so the cat is padded twice: at dim = 60 it is
    built at 90 levels from gates exponentiated at 135, whose cached
    spectra (`fock.generator_spectrum`) every cat and gate target of that
    size shares.
    The crop loss is measured against the exact squared norm of the cat,
    2 + 2 cos(phi) exp(-u² e^{2r}). If the crop discards max_loss of it or
    more, the state does not fit and a TruncationLossError names the
    dimension that would; max_loss lies in (0, 1].
    """
    _require("max_loss", max_loss, above=0, at_most=1)
    dim = spec.dim
    big = dim + fock._pad(dim)
    # 2 + 2 cos(phi) e^{-t}, arranged so an odd cat near u = 0 keeps its digits.
    cos_phi = math.cos(spec.phi)
    t = spec.u * spec.u * math.exp(2.0 * spec.r)
    total = 2.0 * (1.0 + cos_phi) + 2.0 * cos_phi * math.expm1(-t)
    if total == 0.0:
        raise ContractViolationError(
            "cat construction produced the zero vector (destructive interference)"
        )
    sq = fock.squeeze(spec.r, big)
    d_plus = fock.displacement_x(spec.u, big)
    d_minus = fock.displacement_x(-spec.u, big)
    vec = (d_plus + np.exp(1j * spec.phi) * d_minus) @ (sq @ fock.vacuum(big).amps)
    # loss[n - 1] is the share of the exact norm outside the first n levels.
    loss = 1.0 - np.cumsum(np.abs(vec) ** 2) / total
    if loss[dim - 1] >= max_loss:
        # Levels well inside the padded build are accurate, so its first crop
        # under max_loss is the required dimension; if no crop of it fits,
        # its size is a lower bound.
        fits = np.nonzero(loss < max_loss)[0]
        required = int(fits[0]) + 1 if fits.size else big
        raise TruncationLossError(
            f"cropping to dim {dim} loses {loss[dim - 1]:.3e} of the norm (>= {max_loss:.1e}); "
            f"a dimension of at least {required} is required",
            required_dim=required,
        )
    return FockState(vec[:dim])


# ---------------------------------------------------------------------------
# Optimal finite-dimensional approximations (witness ground states)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundStateReport:
    state: FockState
    eigenvalue: float
    xi_db: float
    stellar_rank_bound: int  # the sector's highest Fock level, which bounds the stellar rank
    sector: str  # "even", "odd", or "full"


def _sector_for_phase(phi: float) -> str:
    two_pi = 2.0 * math.pi
    reduced = phi % two_pi
    if math.isclose(reduced, 0.0, abs_tol=1e-12) or math.isclose(reduced, two_pi, abs_tol=1e-12):
        return "even"
    if math.isclose(reduced, math.pi, abs_tol=1e-12):
        return "odd"
    return "full"


def _sector_indices(dim: int, sector: str) -> np.ndarray:
    if sector not in ("even", "odd", "full"):
        raise ContractViolationError(f"unknown sector {sector!r}")
    idx = np.arange(1 if sector == "odd" else 0, dim, 1 if sector == "full" else 2)
    if idx.size == 0:
        raise ContractViolationError(f"the {sector} sector of a {dim}-level space is empty")
    return idx


def _fix_gauge(vec: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(vec)))
    phase = vec[idx] / abs(vec[idx])
    return vec / phase


def optimal_sqe_approximation(spec: WitnessSpec) -> GroundStateReport:
    """Best approximation of the target superposition at the requested dimension.

    Ground state of the truncated witness. For the symmetric phases the
    witness commutes with parity, and the sector matching the target's
    parity (even for phi = 0, odd for phi = pi) is selected so the returned
    state approximates the requested superposition rather than whichever
    parity happens to sit lowest at small dimensions. The global phase is
    gauged so the largest-magnitude amplitude is real positive (in a
    degenerate sector, of the solver's first ground eigenvector), and xi_db
    is `witness.ratio_db` of the sector eigenvalue over the Gaussian bound.
    """
    sector = _sector_for_phase(spec.phi)
    idx = _sector_indices(spec.dim, sector)
    w = witness.build_witness(spec)
    block = w[np.ix_(idx, idx)]
    eig = fock.hermitian_eig(block)
    amps = np.zeros(spec.dim, dtype=complex)
    amps[idx] = _fix_gauge(eig.vectors[:, 0])
    eigenvalue = float(eig.values[0])
    return GroundStateReport(
        state=FockState(amps),
        eigenvalue=eigenvalue,
        xi_db=witness.ratio_db(eigenvalue, witness.gaussian_bound(spec.u, spec.c, spec.k).value),
        stellar_rank_bound=int(idx[-1]),
        sector=sector,
    )


def ground_state_sweep(u: float, phi: float, c: float, dims: list[int], k: int) -> list[GroundStateReport]:
    """Optimal approximations over a range of truncation dimensions, in the
    order of `dims`; each report's dimension is `report.state.dim`."""
    return [optimal_sqe_approximation(WitnessSpec(u=u, phi=phi, c=c, dim=dim, k=k)) for dim in dims]


# ---------------------------------------------------------------------------
# Ideal conditional-gate targets
# ---------------------------------------------------------------------------


def ideal_gate_target(kind: str, u: float, phi: float, dim: int) -> FockState:
    """Exact conditional output for an ideal quadrature-eigenstate resource.

    QND coupling leaves (D(u) + e^{i phi} D(-u))|0>; the balanced beam
    splitter leaves the same superposition contracted by sqrt(2):
    displacement u/sqrt(2) on a vacuum squeezed by ln(2)/2. Returned as the
    normalized truncation to dim, however much of the norm the crop drops,
    so fidelities stay comparable at small dimensions.
    """
    fock._check_coupler_args(kind, dim)
    if kind == "QND":
        return squeezed_cat(CatSpec(u=u, r=0.0, phi=phi, dim=dim), max_loss=1.0)
    return squeezed_cat(
        CatSpec(u=u / math.sqrt(2.0), r=math.log(2.0) / 2.0, phi=phi, dim=dim),
        max_loss=1.0,
    )
