"""State families: squeezed cats, optimal witness ground states, gate targets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, witness
from .errors import ContractViolationError, TruncationLossError
from .fock import FockState
from .witness import WitnessSpec

TRUNCATION_LOSS_MAX = 1e-4
DEGENERACY_GAP = 1e-10


@dataclass(frozen=True)
class CatSpec:
    """Squeezed-cat parameters: displacement u, squeezing r, phase phi, dim."""

    u: float
    r: float
    phi: float
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ContractViolationError(f"cat dimension must be >= 2, got {self.dim}")


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
    dimension that would.
    """
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
    seed = np.zeros(big, dtype=complex)
    seed[0] = 1.0
    vec = (d_plus + np.exp(1j * spec.phi) * d_minus) @ (sq @ seed)
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
    t = math.exp(2.0 * r) * u * u
    if t > 700.0:
        interference = 0.0
    else:
        interference = 4.0 * t * (t - 3.0) / (math.exp(t) + 1.0)
    return (interference + 8.0 * t + 3.0) / (4.0 * math.exp(4.0 * r))


# ---------------------------------------------------------------------------
# Optimal finite-dimensional approximations (witness ground states)
# ---------------------------------------------------------------------------


def stellar_rank_bound(dim: int, sector: str) -> int:
    """Upper bound on the stellar rank of a dim-level state in `sector`: its highest Fock level."""
    return int(_sector_indices(dim, sector)[-1])


@dataclass(frozen=True)
class GroundStateReport:
    state: FockState
    eigenvalue: float
    xi_db: float
    stellar_rank_bound: int
    degenerate: bool
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
    if sector == "even":
        return np.arange(0, dim, 2)
    if sector == "odd":
        return np.arange(1, dim, 2)
    return np.arange(dim)


def _fix_gauge(vec: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(vec)))
    phase = vec[idx] / abs(vec[idx])
    return vec / phase


def _lexicographic_key(vec: np.ndarray) -> tuple:
    rounded = np.round(vec, 12)
    return tuple(v for pair in zip(rounded.real, rounded.imag) for v in pair)


def optimal_sqe_approximation(spec: WitnessSpec, sector: str = "auto") -> GroundStateReport:
    """Best approximation of the target superposition at the requested dimension.

    Ground state of the truncated witness. For the symmetric phases the
    witness commutes with parity, and the sector matching the target's
    parity (even for phi = 0, odd for phi = pi) is selected so the returned
    state approximates the requested superposition rather than whichever
    parity happens to sit lowest at small dimensions. The global phase is
    gauged so the largest-magnitude amplitude is real positive.
    """
    if sector == "auto":
        sector = _sector_for_phase(spec.phi)
    if sector not in ("even", "odd", "full"):
        raise ContractViolationError(f"unknown sector {sector!r}")
    idx = _sector_indices(spec.dim, sector)
    if idx.size == 0:
        raise ContractViolationError(f"the {sector} sector of a {spec.dim}-level space is empty")
    w = witness.build_witness(spec)
    block = w[np.ix_(idx, idx)]
    eig = fock.hermitian_eig(block)
    gap = float(eig.values[1] - eig.values[0]) if eig.values.size > 1 else math.inf
    degenerate = gap < DEGENERACY_GAP
    candidates = [eig.vectors[:, 0]]
    if degenerate:
        candidates = [
            eig.vectors[:, j]
            for j in range(eig.values.size)
            if eig.values[j] - eig.values[0] < DEGENERACY_GAP
        ]
    gauged = [_fix_gauge(v) for v in candidates]
    ground = min(gauged, key=_lexicographic_key)

    amps = np.zeros(spec.dim, dtype=complex)
    amps[idx] = ground
    state = FockState(amps)
    return GroundStateReport(
        state=state,
        eigenvalue=float(eig.values[0]),
        xi_db=witness.sqe_squeezing_db(state, spec),
        stellar_rank_bound=stellar_rank_bound(spec.dim, sector),
        degenerate=degenerate,
        sector=sector,
    )


def ground_state_sweep(
    u: float, phi: float, c: float, dims: list[int], k: int = 100
) -> list[tuple[int, GroundStateReport]]:
    """Optimal approximations over a range of truncation dimensions."""
    out = []
    for dim in dims:
        spec = WitnessSpec(u=u, phi=phi, c=c, dim=dim, k=k)
        out.append((dim, optimal_sqe_approximation(spec)))
    return out


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
    kind = kind.upper()
    if kind == "QND":
        return squeezed_cat(CatSpec(u=u, r=0.0, phi=phi, dim=dim), max_loss=1.0)
    if kind == "BS":
        return squeezed_cat(
            CatSpec(u=u / math.sqrt(2.0), r=math.log(2.0) / 2.0, phi=phi, dim=dim),
            max_loss=1.0,
        )
    raise ContractViolationError(f"unknown coupler kind {kind!r}; expected one of {fock.COUPLER_KINDS}")
