"""Witness operators for superpositions of quadrature eigenstates.

The witness is a positive-semidefinite family W(u, phi, c) = X(u) + c * P(u, phi):
X penalizes wave packets away from x = ±u through (x² - u²)², and P is a comb
of momentum projectors (approximated by a sharpened sin^2k ridge) that
penalizes the wrong interference phase. Expectations are benchmarked against
the minimum over Gaussian states, and the ratio in decibels is the
nonlinear-squeezing figure of merit: negative dB certifies non-Gaussianity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln

from . import fock
from .errors import ContractViolationError, OptimizerFailure
from .fock import FockState

EXPECTATION_FLOOR = 1e-14

GAUSSIAN_R_BRACKET = (-5.0, 10.0)


@dataclass(frozen=True)
class WitnessSpec:
    """Parameters of one member of the witness family.

    u: peak position (> 0); phi: superposition phase, any finite value (the
    comb is 2pi-periodic in phi, and the sector choice reduces it mod 2pi);
    c: balancing weight between the position and momentum parts (>= 0);
    dim: truncation dimension; k: comb sharpness exponent.
    """

    u: float
    phi: float
    c: float
    dim: int
    k: int = 100

    def __post_init__(self):
        if self.u <= 0:
            raise ContractViolationError(f"u must be > 0, got {self.u}")
        if self.c < 0:
            raise ContractViolationError(f"c must be >= 0, got {self.c}")
        if self.k < 1:
            raise ContractViolationError(f"k must be >= 1, got {self.k}")
        if self.dim < 1:
            raise ContractViolationError(f"dim must be >= 1, got {self.dim}")


# ---------------------------------------------------------------------------
# Constituent operators
# ---------------------------------------------------------------------------


def position_quartic(u: float, dim: int) -> np.ndarray:
    """(x² - u²)² assembled at dimension dim+4 and cropped back to dim.

    The 4-level margin absorbs the ladder reach of the fourth power, leaving
    the cropped block essentially free of truncation error.
    """
    if u < 0:
        raise ContractViolationError(f"u must be >= 0, got {u}")
    x, _ = fock.quadratures(dim + 4)
    shifted = x @ x - (u * u) * np.eye(dim + 4)
    return fock.crop(shifted @ shifted, dim)


def comb_prefactor(u: float, k: int) -> float:
    """Normalization (u/sqrt(pi)) Gamma(k+1)/Gamma(k+1/2) of the comb ridge.

    Evaluated through log-gamma so large k does not overflow; it makes each
    sin^2k bump integrate to unity, matching a unit-weight projector.
    """
    return u / math.sqrt(math.pi) * math.exp(gammaln(k + 1) - gammaln(k + 0.5))


@lru_cache(maxsize=8)
def _sin_power_harmonics(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fourier weights of sin^2k: sum over m of c_m e^{i 2 m theta}.

    c_m = (-1)^m C(2k, k+m) / 4^k; returns (m >= 0, c_m) with the tail below
    1e-20 c_0 dropped. Evaluated through log-gamma so k = 100 and far
    beyond stay exact to rounding. Cached read-only per k.
    """
    log4k = 2.0 * k * math.log(2.0)
    log_c0 = gammaln(2 * k + 1) - 2.0 * gammaln(k + 1) - log4k
    ms = [0]
    cs = [math.exp(log_c0)]
    for m in range(1, k + 1):
        log_cm = gammaln(2 * k + 1) - gammaln(k + m + 1) - gammaln(k - m + 1) - log4k
        if log_cm - log_c0 < math.log(1e-20):
            break
        ms.append(m)
        cs.append((-1.0) ** m * math.exp(log_cm))
    ms, cs = np.array(ms), np.array(cs)
    ms.flags.writeable = cs.flags.writeable = False
    return ms, cs


def _displacement_negligible(x: float, dim: int) -> bool:
    # Largest |<n|D|m>| in the dim-block is ~ exp(-x/2) x^dim / dim!; skip
    # harmonics whose whole block is far below rounding.
    return 0.5 * x - dim * math.log(max(x, 3.0)) + gammaln(dim + 1) > 322.0


def momentum_comb(u: float, phi: float, k: int, dim: int) -> np.ndarray:
    """Sharpened comb (u/sqrt(pi)) (k)_(1/2) sin^2k(u p + phi/2), truncated.

    Assembled as the exact Fock-space truncation of the infinite-dimensional
    operator: the finite Fourier expansion of sin^2k turns each harmonic into
    an x-displacement with closed-form matrix elements, all built from one
    `fock.ExactDisplacements(dim)` in O(N²) each. Spectral sampling of
    a padded momentum quadrature is useless here; with k ~ 100 the ridge is
    far narrower than any reachable eigenvalue spacing and the sampled
    diagonal never converges.
    """
    if k < 1:
        raise ContractViolationError(f"k must be >= 1, got {k}")
    if u <= 0:
        raise ContractViolationError(f"u must be > 0, got {u}")
    ms, cs = _sin_power_harmonics(k)
    displace = fock.ExactDisplacements(dim)
    out = cs[0] * np.eye(dim, dtype=complex)
    for m, c in zip(ms[1:], cs[1:]):
        x = 2.0 * (m * u) ** 2
        if _displacement_negligible(x, dim):
            continue
        d = displace(-2.0 * m * u)
        out += c * (np.exp(1j * m * phi) * d + np.exp(-1j * m * phi) * d.T)
    return comb_prefactor(u, k) * out


def comb_points(u: float, phi: float, j_values: np.ndarray) -> np.ndarray:
    """Momentum comb positions p_j = ((2j - 1) pi - phi) / (2u)."""
    return ((2.0 * j_values - 1.0) * np.pi - phi) / (2.0 * u)


def _auto_j_cut(u: float, phi: float, n: int) -> int:
    # Hermite functions are negligible (< 1e-12) beyond the classical
    # turning point plus a 10-unit Gaussian tail margin.
    p_max = math.sqrt(2.0 * n + 1.0) + 10.0
    return int(math.ceil((2.0 * u * p_max + abs(phi)) / (2.0 * math.pi) + 0.5)) + 1


def comb_diagonal_exact(u: float, phi: float, n: int, j_cut: int | None = None) -> float:
    """Brute-force diagonal of the exact projector comb on Fock level n.

    Sums |psi_n(p_j)|² over comb points j in [1 - j_cut, j_cut]; the default
    cut keeps every omitted term below the 1e-12 Hermite tail bound.
    """
    if u <= 0:
        raise ContractViolationError(f"u must be > 0, got {u}")
    if j_cut is None:
        j_cut = _auto_j_cut(u, phi, n)
    js = np.arange(1 - j_cut, j_cut + 1)
    pts = comb_points(u, phi, js)
    phi_n = fock.hermite_functions(n, pts)[n]
    return float(np.sum(phi_n * phi_n))


class AccuracyRow(NamedTuple):
    n: int
    exact: float
    approx: float
    rel_error: float


def accuracy_scan(u: float, k: int, n_max: int) -> list[AccuracyRow]:
    """Per-level relative error of the sin^2k comb against the exact comb sum.

    Both combs are taken at phi = 0. The approximate diagonal is read from
    a build at twice the scanned depth so the quoted error reflects the
    ridge approximation, not truncation.
    """
    build_dim = 2 * n_max + 2
    approx = np.real(np.diag(momentum_comb(u, 0.0, k, build_dim)))
    rows = []
    for n in range(n_max + 1):
        exact = comb_diagonal_exact(u, 0.0, n)
        rel = abs(1.0 - approx[n] / exact)
        rows.append(AccuracyRow(n=n, exact=exact, approx=float(approx[n]), rel_error=float(rel)))
    return rows


@lru_cache(maxsize=64)
def build_witness(spec: WitnessSpec) -> np.ndarray:
    """Witness matrix X(u) + c * comb(u, phi) at the requested dimension.

    Cached read-only per spec; safe to share across threads.
    """
    w = position_quartic(spec.u, spec.dim)
    if spec.c != 0.0:
        w = w + spec.c * momentum_comb(spec.u, spec.phi, spec.k, spec.dim)
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# Gaussian benchmark
# ---------------------------------------------------------------------------


def theta3_half_pi(q: float) -> float:
    """Third Jacobi theta function at z = -pi/2: sum of (-1)^n q^(n²)."""
    if not 0.0 <= q < 1.0:
        raise ContractViolationError(f"theta3 nome must lie in [0, 1), got {q}")
    total = 1.0
    n = 1
    while True:
        term = q ** (n * n)
        if term < 1e-16:
            return total
        total += 2.0 * (-1.0) ** n * term
        n += 1


_GOLDEN_TOL = 1e-12


def _golden_min(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = (a + b) / 2.0
    return xm, f(xm)


@dataclass(frozen=True)
class GaussianBound:
    """Minimum witness expectation over Gaussian states and which optimum won."""

    value: float
    branch: str  # "squeezed-vacuum" or "infinitely-squeezed"
    argmin_r: float | None


def squeezed_vacuum_expectation(u: float, c: float, r: float) -> float:
    """Witness expectation on a vacuum squeezed by r (x-variance e^(-2r)/2)."""
    nome = math.exp(-u * u * math.exp(2.0 * r)) if u * u * math.exp(2.0 * r) < 745 else 0.0
    quartic = u**4 + 0.75 * math.exp(-4.0 * r) - u * u * math.exp(-2.0 * r)
    return quartic + (u * c / math.pi) * theta3_half_pi(nome)


@lru_cache(maxsize=64)
def gaussian_bound(u: float, c: float) -> GaussianBound:
    """Benchmark minimum of the witness expectation over Gaussian states.

    Two candidate optima: a centered squeezed vacuum (minimized over the
    squeezing parameter by golden section) and the infinitely squeezed
    state displaced to u, whose expectation is u*c/pi. The comb offset phi
    moves neither optimum, so the bound depends on (u, c) only.
    For the degenerate c = 0 family only the squeezed-vacuum branch is a
    meaningful benchmark (the displaced branch collapses to zero together
    with the comb weight) and it is returned unconditionally. Cached per
    (u, c); the result is immutable.
    """
    if u <= 0:
        raise ContractViolationError(f"u must be > 0, got {u}")
    if c < 0:
        raise ContractViolationError(f"c must be >= 0, got {c}")

    lo, hi = GAUSSIAN_R_BRACKET
    f = lambda r: squeezed_vacuum_expectation(u, c, r)
    h = 1e-6
    if f(lo + h) - f(lo) >= 0.0 or f(hi) - f(hi - h) <= 0.0:
        raise OptimizerFailure(
            f"squeezed-vacuum branch is not bracketed on r in [{lo}, {hi}] for u={u}, c={c}"
        )
    r_star, e_a = _golden_min(f, lo, hi)
    e_b = u * c / math.pi

    if c > 0.0 and e_b < e_a:
        return GaussianBound(value=e_b, branch="infinitely-squeezed", argmin_r=None)
    return GaussianBound(value=e_a, branch="squeezed-vacuum", argmin_r=r_star)


def ratio_db(value: float, benchmark: float) -> float:
    """10 log10(value / benchmark), with value raised to EXPECTATION_FLOOR.

    Witness expectations are nonnegative, but rounding can leave them at or
    below zero, where the log is undefined; such a clamp warns.
    """
    if value <= EXPECTATION_FLOOR:
        warnings.warn(
            f"witness expectation {value:.3e} at or below the positivity floor; clamped",
            RuntimeWarning,
            stacklevel=3,
        )
    return 10.0 * math.log10(max(value, EXPECTATION_FLOOR) / benchmark)


def sqe_squeezing_db(
    state: FockState, spec: WitnessSpec, bound: GaussianBound | None = None
) -> float:
    """Nonlinear squeezing of the state in decibels.

    10 log10 of the witness expectation over the Gaussian benchmark;
    negative values certify non-Gaussianity. Expectations that round below
    the positivity floor are clamped (with a warning) before the log.
    """
    if state.dim != spec.dim:
        raise ContractViolationError(
            f"state dimension {state.dim} does not match witness dimension {spec.dim}"
        )
    if bound is None:
        bound = gaussian_bound(spec.u, spec.c)
    return ratio_db(fock.expectation(build_witness(spec), state), bound.value)


def witness_report(state: FockState, spec: WitnessSpec) -> dict:
    """Expectation, Gaussian benchmark, and squeezing in dB as one record."""
    bound = gaussian_bound(spec.u, spec.c)
    expect = fock.expectation(build_witness(spec), state)
    return {
        "u": spec.u,
        "phi": spec.phi,
        "c": spec.c,
        "dim": spec.dim,
        "k": spec.k,
        "expectation": expect,
        "gaussian_bound": bound.value,
        "branch": bound.branch,
        "argmin_r": bound.argmin_r,
        "xi_db": ratio_db(expect, bound.value),
    }
