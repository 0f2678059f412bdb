"""Witness operators for superpositions of quadrature eigenstates.

The witness is a positive-semidefinite family W(u, phi, c) = X(u) + c * P(u, phi):
X penalizes wave packets away from x = ±u through (x² - u²)², and P is a comb
of momentum projectors (approximated by a sharpened sin^2k ridge) that
penalizes the wrong interference phase. Expectations are benchmarked against
the minimum over Gaussian states of the same operator, the sin^2k ridge with
its own k, and the ratio in decibels is the nonlinear-squeezing figure of
merit: negative dB certifies non-Gaussianity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import fock
from ._special import lgam
from .errors import ContractViolationError, OptimizerFailure, _require
from .fock import FockState

EXPECTATION_FLOOR = 1e-14

GAUSSIAN_R_BRACKET = (-5.0, 10.0)
# A golden-section minimizer this close to a bracket end has run into it.
_BRACKET_EDGE = 1e-9


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
        _require("u", self.u, above=0)
        _require("phi", self.phi)
        _require("c", self.c, at_least=0)
        _require("dim", self.dim, at_least=1, integer=True)
        _require("k", self.k, at_least=1, integer=True)


# ---------------------------------------------------------------------------
# Constituent operators
# ---------------------------------------------------------------------------


def position_quartic(u: float, dim: int) -> np.ndarray:
    """(x² - u²)² assembled at dimension dim+4 and cropped back to dim.

    The 4-level margin absorbs the ladder reach of the fourth power, leaving
    the cropped block essentially free of truncation error.
    """
    _require("u", u, at_least=0)
    x, _ = fock.quadratures(dim + 4)
    shifted = x @ x - (u * u) * np.eye(dim + 4)
    return fock.crop(shifted @ shifted, dim)


def comb_prefactor(u: float, k: int) -> float:
    """Normalization (u/sqrt(pi)) Gamma(k+1)/Gamma(k+1/2) of the comb ridge.

    Evaluated through log-gamma so large k does not overflow; it makes each
    sin^2k bump integrate to unity, matching a unit-weight projector.
    """
    _require("u", u, above=0)
    _require("k", k, at_least=1, integer=True)
    return u / math.sqrt(math.pi) * math.exp(lgam(k + 1) - lgam(k + 0.5))


@lru_cache(maxsize=8)
def _sin_power_harmonics(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fourier weights of sin^2k: sum over m of c_m e^{i 2 m theta}.

    c_m = (-1)^m C(2k, k+m) / 4^k; returns (m >= 0, c_m) with the tail below
    1e-20 c_0 dropped. Evaluated through log-gamma so k = 100 and far
    beyond stay exact to rounding. Cached read-only per k.
    """
    log4k = 2.0 * k * math.log(2.0)
    log_c0 = lgam(2 * k + 1) - 2.0 * lgam(k + 1) - log4k
    ms = [0]
    cs = [math.exp(log_c0)]
    for m in range(1, k + 1):
        log_cm = lgam(2 * k + 1) - lgam(k + m + 1) - lgam(k - m + 1) - log4k
        if log_cm - log_c0 < math.log(1e-20):
            break
        ms.append(m)
        cs.append((-1.0) ** m * math.exp(log_cm))
    ms, cs = np.array(ms), np.array(cs)
    ms.flags.writeable = cs.flags.writeable = False
    return ms, cs


def momentum_comb(u: float, phi: float, k: int, dim: int) -> np.ndarray:
    """Sharpened comb (u/sqrt(pi)) (k)_(1/2) sin^2k(u p + phi/2), truncated.

    Assembled as the exact Fock-space truncation of the infinite-dimensional
    operator: the finite Fourier expansion of sin^2k turns each harmonic into
    an x-displacement with closed-form matrix elements, all built from one
    `fock.ExactDisplacements(dim)` in O(N²) each. Spectral sampling of
    a padded momentum quadrature is useless here; with k ~ 100 the ridge is
    far narrower than any reachable eigenvalue spacing and the sampled
    diagonal never converges. A build whose cut skips a harmonic that is
    not negligible (ROADMAP item 2) issues one RuntimeWarning naming it.
    """
    prefactor = comb_prefactor(u, k)
    _require("phi", phi)
    ms, cs = _sin_power_harmonics(k)
    displace = fock.ExactDisplacements(dim)
    log_dim_factorial = lgam(dim + 1)
    dropped = []
    out = cs[0] * np.eye(dim, dtype=complex)
    for m, c in zip(ms[1:], cs[1:]):
        x = 2.0 * (m * u) ** 2
        # The cut skips a block when exp(-x/2) x^dim / dim! is below rounding.
        # That bounds the block's elements only where x >= 2 dim; below, the
        # skipped block is not negligible.
        if 0.5 * x - dim * math.log(max(x, 3.0)) + log_dim_factorial > 322.0:
            if x < 2.0 * dim:
                dropped.append(int(m))
            continue
        d = displace(-2.0 * m * u)
        # out += c * (e^(i m phi) d + e^(-i m phi) dᵀ), the same operations in the
        # same order, with two N x N temporaries in place of four.
        term = np.exp(1j * m * phi) * d
        term += np.exp(-1j * m * phi) * d.T
        np.multiply(c, term, out=term)
        out += term
    if dropped:
        message = f"comb at u = {u}, dim = {dim} drops non-negligible harmonics m = {dropped} (ROADMAP item 2)"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return prefactor * out


def comb_diagonal_exact(u: float, n_max: int) -> np.ndarray:
    """Brute-force diagonal of the exact phi = 0 projector comb on Fock levels 0..n_max.

    Level n sums |psi_n(p_j)|² over the comb points p_j = (2j - 1) pi / (2u),
    j in [1 - c, c]: one Hermite table, one sum per level. The cut c keeps
    every omitted term of level n_max below the 1e-12 Hermite tail bound, and
    lower levels decay sooner, so it serves them too.
    """
    _require("u", u, above=0)
    _require("n_max", n_max, at_least=0, integer=True)
    # Hermite functions are negligible (< 1e-12) beyond the classical
    # turning point plus a 10-unit Gaussian tail margin.
    p_max = math.sqrt(2.0 * n_max + 1.0) + 10.0
    cut = int(math.ceil(2.0 * u * p_max / (2.0 * math.pi) + 0.5)) + 1
    table = fock.hermite_functions(n_max, (2.0 * np.arange(1 - cut, cut + 1) - 1.0) * np.pi / (2.0 * u))
    return np.sum(table * table, axis=1)


def _finite_comb(u: float, phi: float, k: int, dim: int) -> np.ndarray:
    """`momentum_comb`, refused by name where it overflows to non-finite entries (ROADMAP item 2)."""
    comb = momentum_comb(u, phi, k, dim)
    if not np.isfinite(comb).all():
        raise ContractViolationError(f"momentum comb at u = {u}, N = {dim} has non-finite entries (ROADMAP item 2)")
    return comb


class AccuracyRow(NamedTuple):
    n: int
    exact: float
    approx: float
    rel_error: float


def accuracy_scan(u: float, k: int, n_max: int) -> list[AccuracyRow]:
    """Per-level relative error of the sin^2k comb against the exact comb sum.

    Both combs are taken at phi = 0. The exact diagonal is one Hermite
    table and one sum per level (`comb_diagonal_exact`), the relative
    errors one array step. The approximate diagonal is read from a build
    at n_max + 1 levels. Its `fock.ExactDisplacements` blocks are
    exact truncations, so a larger build adds nothing but the size-dependent
    skip rule of `momentum_comb`, which drops the strongest harmonics from
    159 levels at u = 2 (ROADMAP item 2; a scan that deep still meets it,
    and warns); a non-finite build is refused (`_finite_comb`).
    """
    _require("n_max", n_max, at_least=0, integer=True)
    approx = np.real(np.diag(_finite_comb(u, 0.0, k, n_max + 1)))
    exact = comb_diagonal_exact(u, n_max)
    rel_error = np.abs(1.0 - approx / exact)
    return list(map(AccuracyRow, range(n_max + 1), exact.tolist(), approx.tolist(), rel_error.tolist()))


@lru_cache(maxsize=64)
def build_witness(spec: WitnessSpec) -> np.ndarray:
    """Witness matrix X(u) + c * comb(u, phi) at the requested dimension.

    Cached read-only per spec; safe to share across threads.
    """
    w = position_quartic(spec.u, spec.dim)
    if spec.c != 0.0:
        w = w + spec.c * _finite_comb(spec.u, spec.phi, spec.k, spec.dim)
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# Gaussian benchmark
# ---------------------------------------------------------------------------


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


def squeezed_vacuum_expectation(u: float, c: float, r: float, k: int) -> float:
    """Witness expectation on a vacuum squeezed by r (x-variance e^(-2r)/2).

    Each harmonic c_m e^(2imup) of `_sin_power_harmonics(k)` averages to
    c_m e^(-m² u² e^(2r)), and comb_prefactor(u, k) c_0 = u/pi, so the comb
    part is (u c/pi) [1 + 2 sum_m (c_m/c_0) e^(-m² u² e^(2r))].
    """
    for name, value in (("u", u), ("c", c), ("r", r)):
        _require(name, value)
    _require("k", k, at_least=1, integer=True)
    ms, cs = _sin_power_harmonics(k)
    decay = np.exp(-(ms[1:] ** 2) * (u * u * math.exp(2.0 * r)))
    comb = 1.0 + 2.0 * float(np.dot(cs[1:] / cs[0], decay))
    quartic = u**4 + 0.75 * math.exp(-4.0 * r) - u * u * math.exp(-2.0 * r)
    return quartic + (u * c / math.pi) * comb


@lru_cache(maxsize=64)
def gaussian_bound(u: float, c: float, k: int) -> GaussianBound:
    """Benchmark minimum of the witness expectation over Gaussian states.

    Two candidate optima: a centered squeezed vacuum, minimized over the
    squeezing parameter by golden section on GAUSSIAN_R_BRACKET (a
    minimizer that ends within 1e-9 of an end raises OptimizerFailure), and
    the infinitely squeezed state displaced to u, whose expectation is
    u*c/pi for every k. Both price the witness's own sin^2k comb. The comb
    offset phi moves neither optimum, so the bound depends on (u, c, k)
    only. For the degenerate c = 0 family only the squeezed-vacuum branch is a
    meaningful benchmark (the displaced branch collapses to zero together
    with the comb weight) and it is returned unconditionally. Cached per
    (u, c, k); the result is immutable.
    """
    _require("u", u, above=0)
    _require("c", c, at_least=0)
    _require("k", k, at_least=1, integer=True)

    lo, hi = GAUSSIAN_R_BRACKET
    r_star, e_a = _golden_min(lambda r: squeezed_vacuum_expectation(u, c, r, k), lo, hi)
    if min(r_star - lo, hi - r_star) < _BRACKET_EDGE:
        raise OptimizerFailure(
            f"squeezed-vacuum minimum at r = {r_star} is not inside [{lo}, {hi}] for u={u}, c={c}, k={k}"
        )
    e_b = u * c / math.pi

    if c > 0.0 and e_b < e_a:
        return GaussianBound(value=e_b, branch="infinitely-squeezed", argmin_r=None)
    return GaussianBound(value=e_a, branch="squeezed-vacuum", argmin_r=r_star)


def ratio_db(value: float, benchmark: float) -> float:
    """10 log10(value / benchmark), with value raised to EXPECTATION_FLOOR.

    Witness expectations are nonnegative, but rounding can leave them at or
    below zero, where the log is undefined; such a clamp warns. A
    non-finite value, or a benchmark that is not finite and positive, is
    refused by name.
    """
    # Inline, not `_require`: the gkp frontier calls this once per row.
    if not math.isfinite(value):
        raise ContractViolationError(f"value must be finite, got {value}")
    if not 0.0 < benchmark < math.inf:
        raise ContractViolationError(f"benchmark must be finite and > 0, got {benchmark}")
    if value <= EXPECTATION_FLOOR:
        warnings.warn(
            f"witness expectation {value:.3e} at or below the positivity floor; clamped",
            RuntimeWarning,
            stacklevel=3,
        )
    return 10.0 * math.log10(max(value, EXPECTATION_FLOOR) / benchmark)


def witness_report(state: FockState, spec: WitnessSpec) -> dict:
    """Expectation, Gaussian benchmark, and squeezing in dB as one record.

    Computed values only; the inputs (the spec, the state's dimension) are
    the caller's to record.
    """
    bound = gaussian_bound(spec.u, spec.c, spec.k)
    expect = fock.expectation(build_witness(spec), state)
    return {
        "expectation": expect,
        "gaussian_bound": bound.value,
        "branch": bound.branch,
        "argmin_r": bound.argmin_r,
        "xi_db": ratio_db(expect, bound.value),
    }
