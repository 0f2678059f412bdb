"""Dense complex linear algebra over truncated Fock bases.

Conventions used throughout the package: natural units with [x, p] = i,
quadratures x = (a† + a)/sqrt(2), p = i(a† - a)/sqrt(2), vacuum variance 1/2.
The Gaussian gates `displacement_x` and `squeeze` are built max(20, N // 2)
levels above the requested N and cropped back, which keeps the low-photon
block accurate despite truncation; the padding is internal, and
`displacement_x_exact` gives the closed-form block where that matters.
`states.squeezed_cat` applies these gates in its own padded dimension, so a
cat is padded twice: an N = 60 cat exponentiates 135-level spectra. Every
padded spectrum, including those of `breeding`'s Q0 and its Gaussian
candidates, comes from one cached, read-only eigendecomposition per
generator and size (`generator_spectrum`).
That block costs O(N²): one Laguerre recurrence over the degree, vectorized
over the order, that repeats scipy's scalar loop operation for operation,
so each entry is bitwise equal to the elementwise closed form
(`ExactDisplacements` shares its s-independent tables across many s).
Like that closed form, it still has non-finite entries from N ≈ 250 at
large |s| (ROADMAP item 2).
Two-mode composite indices are mode-1 major: (n1, n2) -> n1 * N + n2.
Two-mode couplers reach the gate and breeding paths only as N x N x N
kernels already contracted with <p = 0| on mode 1 (`p0_kernel`). The dense
N² x N² unitary (`two_mode_coupler`) is built only by the `pareto` frontier
objectives, once per run at their few-level N. The BS kernel is
exact for N-level inputs with a vacuum ancilla. The QND kernel is not: it is
the unpadded N-level exponential, whose error grows as the input fills the
space (see `p0_kernel`).
`wigner` sums each diagonal of the density matrix against its Laguerre
functions by Clenshaw's recurrence and the diagonals by Horner's rule, in
O(grid) memory and exact to rounding (within 1e-12 of a quadrature oracle up
to N = 300). Far out in phase space at large N (from radius ≈ 38 at N = 200,
≈ 28 at N = 300) that sum overflows float64, and `wigner` raises a
ContractViolationError instead of returning non-finite values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import binom, gammaln

from .errors import ContractViolationError, InvalidDimensionError

HERMITICITY_TOL = 1e-12

COUPLER_KINDS = ("BS", "QND")


def _pad(dim: int) -> int:
    # Levels added above dim before exponentiating, for the Gaussian gates
    # and the squeezed cats built from them; recorded outputs depend on it.
    return max(20, dim // 2)


# ---------------------------------------------------------------------------
# Elementary operators
# ---------------------------------------------------------------------------


def annihilation(dim: int) -> np.ndarray:
    """Truncated annihilation operator: a[n-1, n] = sqrt(n)."""
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum quadratures (x, p), both Hermitian."""
    a = annihilation(dim)
    ad = a.conj().T
    x = (ad + a) / np.sqrt(2.0)
    p = 1j * (ad - a) / np.sqrt(2.0)
    return x, p


def crop(matrix: np.ndarray, dim: int) -> np.ndarray:
    """Top-left dim x dim block as a fresh array."""
    return np.array(matrix[:dim, :dim], copy=True)


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition and matrix functions
# ---------------------------------------------------------------------------


class EigenDecomposition(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray


def hermiticity_defect(matrix: np.ndarray) -> float:
    """max |M - M†| elementwise."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def is_hermitian(matrix: np.ndarray) -> bool:
    """Hermiticity check within HERMITICITY_TOL, relative to the largest entry."""
    scale = max(1.0, float(np.max(np.abs(matrix))))
    return hermiticity_defect(matrix) <= HERMITICITY_TOL * scale


def hermitian_eig(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues.

    The input is symmetrized as (M + M†)/2 before solving to absorb the
    rounding accumulated by Kronecker and exponential chains. Inputs whose
    defect exceeds the (scale-relative) tolerance are rejected.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got shape {matrix.shape}")
    if not is_hermitian(matrix):
        raise ContractViolationError(
            f"matrix is not Hermitian within tolerance (defect {hermiticity_defect(matrix):.3e})"
        )
    sym = (matrix + matrix.conj().T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    return EigenDecomposition(values=values, vectors=vectors)


def matrix_function(
    matrix: np.ndarray | EigenDecomposition, f: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns V f(L) V†. The result is Hermitian whenever f is real-valued;
    complex-valued f (e.g. lam -> exp(i*lam)) yields the corresponding
    operator function of the same eigenbasis. Raises if f is undefined
    (NaN/inf) at an eigenvalue. Takes the matrix, or its eigendecomposition
    when that is already at hand (such as a cached `generator_spectrum`).
    """
    eig = matrix if isinstance(matrix, EigenDecomposition) else hermitian_eig(matrix)
    fvals = np.asarray(f(eig.values))
    if fvals.shape != eig.values.shape:
        raise ContractViolationError("scalar function must map eigenvalues elementwise")
    if not np.all(np.isfinite(fvals)):
        raise ContractViolationError("scalar function undefined at an eigenvalue")
    return (eig.vectors * fvals) @ eig.vectors.conj().T


# ---------------------------------------------------------------------------
# Gaussian unitaries (padded construction, cropped result)
# ---------------------------------------------------------------------------

GENERATORS = ("x", "p", "squeeze")


@lru_cache(maxsize=32)
def generator_spectrum(name: str, dim: int) -> EigenDecomposition:
    """Read-only eigendecomposition of x, p or the squeeze generator at dim levels.

    The one spectral route of the padded Gaussian constructions: the
    displacements, squeezing, Q0 and the Gaussian-benchmark candidates all
    exponentiate these, so each is solved once per process and size.
    name is "x", "p" or "squeeze" (the Hermitian -iG of `squeeze`).
    """
    if name not in GENERATORS:
        raise ContractViolationError(f"unknown generator {name!r}; expected one of {GENERATORS}")
    if name == "squeeze":
        matrix = _squeeze_generator(dim)
    else:
        x, p = quadratures(dim)
        matrix = x if name == "x" else p
    eig = hermitian_eig(matrix)
    eig.values.flags.writeable = False
    eig.vectors.flags.writeable = False
    return eig


def displacement_x(u: float, dim: int) -> np.ndarray:
    """x-displacement exp(-i u p), built in a padded dimension and cropped to dim."""
    full = matrix_function(generator_spectrum("p", dim + _pad(dim)), lambda lam: np.exp(-1j * u * lam))
    return crop(full, dim)


class ExactDisplacements:
    """Exact Fock-basis blocks of x-displacements exp(-i s p) at one dimension.

    With alpha = s/sqrt(2), x = alpha², i = max(n, m), j = min(n, m) and
    d = i - j, the block element is
    <n|exp(-i s p)|m> = ±sqrt(j!/i!) |alpha|^d e^(-x/2) L_j^(d)(x),
    the sign being sign(alpha)^d below the diagonal and (-sign(alpha))^d
    above it. Construction builds, once, everything that does not depend on
    s: the packed (j, d) layout and its gather index, the
    ½(lnΓ(j+1) - lnΓ(i+1)) term, the binomials binom(i, j), the
    recurrence's divisors i and weights (j-1)/i, and the ±1 parity of the
    upper triangle.
    Each call then evaluates every L_j^(d)(x) with j + d < dim in one
    recurrence over the degree j, vectorized over the order d: O(N²) work
    per block, against O(N³) for scipy's elementwise Laguerre evaluation.
    The recurrence performs exactly the floating-point operations of
    scipy's scalar loop, in the same order, so every entry is bitwise equal
    to the elementwise closed form. Entries are still non-finite from
    N ≈ 250 at large |s|, where e^(-x/2) underflows to 0 against a Laguerre
    factor that overflows (ROADMAP item 2).
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
        n = np.arange(dim)
        # Packed layout, degree-major: degree j holds orders d = 0..dim-1-j.
        offsets = np.concatenate(([0], np.cumsum(dim - n)))
        degree = np.repeat(n, dim - n)
        self._order = np.arange(degree.size) - offsets[degree]
        self._levels = n.astype(float)
        lgamma = gammaln(n + 1)
        self._half_lgamma = 0.5 * (lgamma[degree] - lgamma[degree + self._order])
        # Degrees j >= 2, the recurrence's: packed from 2 dim - 1 on, degree
        # j at [_steps[j - 2], _steps[j - 1]).
        j = degree[2 * dim - 1 :]
        self._steps = (offsets[2:] - (2 * dim - 1)).tolist()
        self._row = (j + self._order[2 * dim - 1 :]).astype(float)  # i = j + d
        self._binom = binom(self._row, j)
        self._weight = (j - 1.0) / self._row
        row, col = np.meshgrid(n, n, indexing="ij")
        dist = np.abs(row - col)
        self._index = offsets[np.minimum(row, col)] + dist
        self._parity = np.where((row < col) & (dist % 2 == 1), -1.0, 1.0)
        self.dim = dim

    def _laguerre(self, x: float) -> np.ndarray:
        # scipy's loop for L_n^(a)(x), n >= 2: d = -x/(a+1), p = d + 1, then
        # for k = 1..n-1: d = (-x/((k+a)+1))*p + (k/((k+a)+1))*d, p = d + p;
        # result binom(n+a, n)*p. At degree j = k+1, (k+a)+1 is the exact
        # integer j+a, the row i of the entry; the factors -x/i of all steps
        # are taken in one division. The loop raises no floating-point
        # warnings; neither does this one.
        dim = self.dim
        lag = np.empty(self._order.size)
        lag[:dim] = 1.0
        lag[dim : 2 * dim - 1] = (-x + self._levels[: dim - 1]) + 1.0
        if dim > 2:
            high = lag[2 * dim - 1 :]
            with np.errstate(all="ignore"):
                d = -x / (self._levels[: dim - 2] + 1.0)
                p = d + 1.0
                t = -x / self._row
                for lo, hi in zip(self._steps[:-1], self._steps[1:]):
                    tj, dj, pj = t[lo:hi], d[: hi - lo], p[: hi - lo]
                    np.multiply(tj, pj, out=tj)
                    np.multiply(self._weight[lo:hi], dj, out=dj)
                    np.add(tj, dj, out=dj)
                    p = high[lo:hi]
                    np.add(dj, pj, out=p)
                high *= self._binom
        return lag

    def __call__(self, s: float) -> np.ndarray:
        """The dim x dim block of exp(-i s p)."""
        if s == 0.0:
            return np.eye(self.dim)
        alpha = s / np.sqrt(2.0)
        x = alpha * alpha
        power = np.arange(self.dim) * np.log(abs(alpha))
        power[0] = 0.0
        magnitude = np.exp((self._half_lgamma + power[self._order]) - 0.5 * x) * self._laguerre(x)
        parity = self._parity if alpha > 0 else self._parity.T
        return parity * magnitude[self._index]


def displacement_x_exact(s: float, dim: int) -> np.ndarray:
    """Exact Fock-basis block of the x-displacement exp(-i s p).

    Closed-form matrix elements (associated Laguerre polynomials), i.e. the
    true truncation of the infinite-dimensional operator with no padding
    error. Used where spectral sampling of a truncated quadrature would
    alias, such as the harmonics of sharp momentum combs. Built by
    `ExactDisplacements`, in O(N²); callers needing blocks at several s
    and one dim should keep one `ExactDisplacements(dim)`.
    """
    return ExactDisplacements(dim)(s)


def _squeeze_generator(dim: int) -> np.ndarray:
    # The Hermitian -iG of the anti-Hermitian squeeze generator G = (a² - a†²)/2.
    a = annihilation(dim)
    return -0.5j * (a @ a - a.conj().T @ a.conj().T)


def squeeze(r: float, dim: int) -> np.ndarray:
    """Squeezing exp[(r/2)(a² - a†²)]; r > 0 narrows the x quadrature.

    Built in a padded dimension as exp(i r (-iG)) and cropped to dim.
    """
    full = matrix_function(generator_spectrum("squeeze", dim + _pad(dim)), lambda lam: np.exp(1j * r * lam))
    return crop(full, dim)


# ---------------------------------------------------------------------------
# Two-mode couplers and their p = 0 kernels
# ---------------------------------------------------------------------------


def coupler_generator(kind: str, dim: int) -> np.ndarray:
    """Hermitian generator of the requested Gaussian coupling.

    QND couples as x1*p2; BS as (pi/4)(p1*x2 - p2*x1). Mode-1 major
    Kronecker composition.
    """
    x, p = quadratures(dim)
    if kind == "QND":
        return np.kron(x, p)
    if kind == "BS":
        return (np.pi / 4.0) * (np.kron(p, x) - np.kron(x, p))
    raise ContractViolationError(f"unknown coupler kind {kind!r}; expected one of {COUPLER_KINDS}")


def _check_coupler_args(kind: str, dim: int) -> None:
    if kind not in COUPLER_KINDS:
        raise ContractViolationError(f"unknown coupler kind {kind!r}; expected one of {COUPLER_KINDS}")
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")


def _qnd_factors(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # exp(-i x1 p2): the generator's eigenbasis is the Kronecker product of
    # the single-mode x and p eigenbases, so the big eigensolve factorizes.
    x, p = quadratures(dim)
    (mu, w), (lam, v) = hermitian_eig(x), hermitian_eig(p)
    return mu, w, lam, v


def _bs_sector_blocks(dim: int):
    """Yield (s, n1, block) for each photon sector n1 + n2 = s of exp(+i H).

    H conserves total photon number, so the unitary is exactly
    block-diagonal over the sectors. Block rows and columns run over the
    mode-1 counts n1 (mode 2 holds s - n1); sectors with s >= dim keep only
    the pairs with both counts below dim.
    """
    x, p = quadratures(dim)
    for s in range(2 * dim - 1):
        n1 = np.arange(max(0, s - dim + 1), min(s, dim - 1) + 1)
        a, b = np.ix_(n1, n1), np.ix_(s - n1, s - n1)
        block = (np.pi / 4.0) * (p[a] * x[b] - x[a] * p[b])
        lam, z = hermitian_eig(block)
        yield s, n1, (z * np.exp(1j * lam)) @ z.conj().T


def two_mode_coupler(kind: str, dim: int) -> np.ndarray:
    """Dense dim² x dim² unitary coupler, O(N⁴) in memory.

    Assembled, uncached, from the same BS sector blocks and QND factors as
    `p0_kernel`, which is what the gate and breeding paths use; the `pareto`
    frontier objectives build this one.
    """
    kind = kind.upper()
    _check_coupler_args(kind, dim)
    if kind == "QND":
        mu, w, lam, v = _qnd_factors(dim)
        k = np.kron(w, v)
        phases = np.exp(-1j * np.outer(mu, lam).ravel())
        return (k * phases) @ k.conj().T
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for s, n1, block in _bs_sector_blocks(dim):
        idx = n1 * dim + (s - n1)
        out[np.ix_(idx, idx)] = block
    return out


@lru_cache(maxsize=8)
def p0_kernel(kind: str, dim: int) -> np.ndarray:
    """Coupler contracted with <p = 0| on mode 1, as a read-only dim³ tensor.

    T[k, n1, n2] = sum_j <p=0|j> <j, k|U|n1, n2>, so the unnormalized mode-2
    state conditioned on p = 0 from |a> ⊗ |b> is
    T.reshape(dim, dim²) @ kron(a, b). Cached per (kind, dim); kind is "QND"
    or "BS" exactly.

    Known error: the QND kernel exponentiates x1*p2 in the eigenbases of the
    unpadded dim-level x and p, and the output above level dim - 1 is
    dropped before the gate normalizes. It is therefore not exact for
    inputs that fill the space. On the 60-level u = 3, r = 2 squeezed cat
    with a vacuum ancilla it gives F_QND = 0.999804 against the ideal
    target, where the exact channel out(x2) = (2 pi)^(-1/2) int psi(x1)
    phi_0(x2 - x1) dx1 gives 0.999535 (= F_BS): a 2.7e-4 fidelity gap.
    """
    _check_coupler_args(kind, dim)
    bra = momentum_eigenbra(0.0, dim)
    if kind == "QND":
        # U = (w ⊗ v) diag(exp(-i mu_i lam_j)) (w ⊗ v)†; the bra folds into w,
        # leaving d[n1, j] = sum_i (bra w)_i conj(w[n1, i]) exp(-i mu_i lam_j).
        mu, w, lam, v = _qnd_factors(dim)
        d = (w.conj() * (bra @ w)) @ np.exp(-1j * np.outer(mu, lam))
        kernel = (v[:, None, :] * d[None, :, :]) @ v.conj().T
    else:
        # Within sector s, output row k1 leaves k = s - k1 photons in mode 2.
        kernel = np.zeros((dim, dim, dim), dtype=complex)
        for s, n1, block in _bs_sector_blocks(dim):
            kernel[(s - n1)[:, None], n1, s - n1] = bra[n1][:, None] * block
    kernel.flags.writeable = False
    return kernel


# ---------------------------------------------------------------------------
# Hermite functions and momentum eigenbras
# ---------------------------------------------------------------------------


def hermite_functions(n_max: int, t: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions phi_0..phi_n_max on a grid.

    phi_n(t) = H_n(t) exp(-t²/2) / (pi^(1/4) sqrt(2^n n!)), evaluated with
    the stable three-term recurrence (no explicit factorials).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((n_max + 1, t.size))
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * t * t)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * t * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * t * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def momentum_eigenbra(p0: float, dim: int) -> np.ndarray:
    """Row vector representing <p = p0| on the truncated Fock basis.

    Entry n is conj(psi_n(p0)), where psi_n(p0) = (-i)^n phi_n(p0) is the
    momentum wavefunction of Fock level n; contracting it against a mode
    evaluates the (unnormalizable) momentum-eigenstate overlap used by
    homodyne post-selection at outcome p0.
    """
    phi = hermite_functions(dim - 1, np.array([p0]))[:, 0]
    return ((-1j) ** np.arange(dim) * phi).conj()


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockState:
    """Normalized pure state in a truncated Fock basis (immutable)."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise InvalidDimensionError("state amplitudes must form a nonempty 1-D vector")
        norm = np.linalg.norm(amps)
        if norm == 0.0 or not np.isfinite(norm):
            raise ContractViolationError("cannot normalize a zero or non-finite vector")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size


def basis_state(dim: int, n: int) -> FockState:
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"Fock index {n} outside [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockState(amps)


def vacuum(dim: int) -> FockState:
    return basis_state(dim, 0)


def expectation(op: np.ndarray, state: FockState) -> float:
    """<psi|op|psi> (real part; intended for Hermitian observables)."""
    if op.shape != (state.dim, state.dim):
        raise ContractViolationError(
            f"operator shape {op.shape} does not match state dimension {state.dim}"
        )
    return float(np.real(np.vdot(state.amps, op @ state.amps)))


def overlap_fidelity(psi: FockState, phi: FockState) -> float:
    """|<psi|phi>|² for pure states of equal dimension."""
    if psi.dim != phi.dim:
        raise ContractViolationError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return float(min(1.0, abs(np.vdot(psi.amps, phi.amps)) ** 2))


def position_wavefunction(state: FockState, xs: np.ndarray) -> np.ndarray:
    """<x|psi> on a grid (real Hermite-function expansion)."""
    phi = hermite_functions(state.dim - 1, xs)
    return state.amps @ phi.astype(complex)


# ---------------------------------------------------------------------------
# Wigner function
# ---------------------------------------------------------------------------


def wigner(state: FockState, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Wigner function on the rectangular grid xs × ps, in O(grid) memory.

    Normalized so the vacuum gives W(0, 0) = 1/pi and the double Riemann sum
    of W over phase space approaches 1. Returned array has shape
    (len(xs), len(ps)) with W[i, j] = W(xs[i], ps[j]). W = Re(sum_d (2 alpha)^d
    S_d / sqrt(d!)) e^{-2|alpha|²}/pi is summed over d by Horner's rule, and
    each S_d (diagonal d of rho, off-diagonals doubled, against Laguerre
    functions of 4|alpha|²) by Clenshaw's recurrence (Johansson, Nation & Nori,
    Comput. Phys. Commun. 184, 1234 (2013)). A float64 overflow, far out at
    large N, raises ContractViolationError naming N and the smallest such radius.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if xs.size == 0 or ps.size == 0:
        raise ContractViolationError("wigner grid must be nonempty")
    rho = np.outer(state.amps, state.amps.conj()) * (2.0 - np.eye(state.dim))
    two_alpha = np.sqrt(2.0) * (xs[:, None] + 1j * ps)
    t, where = np.unique(np.abs(two_alpha) ** 2, return_inverse=True)  # S_d depends on t alone
    w = np.zeros_like(two_alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(state.dim - 1, -1, -1):
            b1 = b2 = 0.0  # Clenshaw's b_{n+1} and b_{n+2}
            for n in range(state.dim - d - 1, -1, -1):
                s, s1 = math.sqrt((n + 1) * (n + d + 1)), math.sqrt((n + 2) * (n + d + 2))
                b1, b2 = rho[n, n + d] - (2 * n + d + 1 - t) / s * b1 - s / s1 * b2, b1
            w = b1[where].reshape(w.shape) + w * two_alpha / math.sqrt(d + 1)
        w = np.real(w) * np.exp(-0.5 * np.abs(two_alpha) ** 2) / np.pi
    if not np.isfinite(w).all():
        radius = np.hypot(xs[:, None], ps)[~np.isfinite(w)].min()
        raise ContractViolationError(f"Wigner sum of {state.dim} levels overflows float64 from radius {radius:.4g}")
    return w
