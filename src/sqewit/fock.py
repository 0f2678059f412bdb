"""Dense complex linear algebra over truncated Fock bases.

Conventions used throughout the package: natural units with [x, p] = i,
quadratures x = (a† + a)/sqrt(2), p = i(a† - a)/sqrt(2), vacuum variance 1/2.
The Gaussian gates `displacement_x` and `squeeze` are built max(20, N // 2)
levels above the requested N and cropped back, which keeps the low-photon
block accurate despite truncation; the padding is internal.
`states.squeezed_cat` applies these gates in its own padded dimension, so a
cat is padded twice: an N = 60 cat exponentiates 135-level spectra. Every
single-mode spectrum that is exponentiated comes from one cached, read-only
eigendecomposition per generator and size (`generator_spectrum`): those of
the padded gates, of `breeding`'s Q0 and its Gaussian candidates, and the
unpadded x and p spectra of the QND coupler and its p = 0 contraction.
`ExactDisplacements` gives the closed-form displacement block where
padding is not enough, in O(N²) per block from tables that are pure
functions of the dimension, and bitwise the elementwise closed form where
scipy's binomial is exact. Each block is the exact truncation of the
infinite-dimensional operator, so an N-level block is bitwise the top-left
N x N block of every larger build.
Two-mode composite indices are mode-1 major: (n1, n2) -> n1 * N + n2.
Two-mode couplers reach the gate and breeding paths only through
`_p0_output` and its beam-splitter rows `_bs_p0_outputs`, which couple two
N-level modes and contract mode 1 with <p = 0| (the QND route and its error:
see `_p0_output`). The dense N² x N² unitary (`two_mode_coupler`) is built
only by the `pareto` frontier objectives, once per run at their few-level N.
`wigner` sums each diagonal of the density matrix against its Laguerre
functions by Clenshaw's recurrence and the diagonals by Horner's rule, in
O(grid) memory and exact to rounding (within 1e-12 of a quadrature oracle up
to N = 300). Far out in phase space at large N (from radius ≈ 38 at N = 200,
≈ 28 at N = 300) that sum overflows float64, and `wigner` raises a
ContractViolationError instead of returning non-finite values.
`hermite_functions` carries a per-point power of 2 where phi_0 underflows
(|t| > 37.6), so its functions stay orthonormal to rounding on grids that
reach past that (a Gram defect of 8e-15 at 1000 levels); elsewhere its
values are those of the plain recurrence, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from ._special import lgam
from .errors import ContractViolationError, _require

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
    _require("dim", dim, at_least=1, integer=True)
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
    """Top-left dim x dim block as a fresh array, 1 <= dim <= the matrix's size."""
    _require("dim", dim, at_least=1, at_most=min(matrix.shape), integer=True)
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


def matrix_function(eig: EigenDecomposition, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Takes the matrix's eigendecomposition (a cached `generator_spectrum`, a
    product of them, or `hermitian_eig` of the matrix) and returns V f(L) V†,
    the package's one such product. The result is Hermitian whenever f is
    real-valued; complex-valued f (e.g. lam -> exp(i*lam)) yields the
    corresponding operator function of the same eigenbasis. Raises if f is
    undefined (NaN/inf) at an eigenvalue.
    """
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

    The one spectral route of the Gaussian constructions: the padded
    displacements, squeezing, Q0 and the Gaussian-benchmark candidates, and
    the unpadded QND coupler and its p = 0 contraction, all exponentiate these,
    so each is solved once per process and size.
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


def _rounded(c: int) -> float:
    # The float nearest to c; inf where that passes the largest float, as in
    # IEEE rounding (float(c) raises there instead).
    try:
        return float(c)
    except OverflowError:
        return math.inf


@lru_cache(maxsize=None)
def _binomial_row(i: int) -> np.ndarray:
    # C(i, j) for j = 0..i, read-only, each exact integer rounded once (to inf
    # from row 1030 on). Exact by C(i, j + 1) = C(i, j) (i - j) / (j + 1).
    exact = accumulate(range(i), lambda c, j: c * (i - j) // (j + 1), initial=1)
    row = np.array([_rounded(c) for c in exact])
    row.flags.writeable = False
    return row


@lru_cache(maxsize=None)
def _log_factorial(n: int) -> float:
    return lgam(n + 1.0)


def _exact_tables(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # Binomial rows 0..dim-1 end to end (row i from i(i+1)/2 on), and ln n!, n < dim.
    binomials = np.concatenate([_binomial_row(i) for i in range(dim)])
    return binomials, np.array([_log_factorial(n) for n in range(dim)])


class ExactDisplacements:
    """Exact Fock-basis blocks of x-displacements exp(-i s p) at one dimension.

    The true truncation of the infinite-dimensional operator, with no
    padding error, for where spectral sampling of a truncated quadrature
    would alias: `witness.momentum_comb` builds all harmonics of a comb
    from one instance.
    With alpha = s/sqrt(2), x = alpha², i = max(n, m), j = min(n, m) and
    d = i - j, the block element is
    <n|exp(-i s p)|m> = ±sqrt(j!/i!) |alpha|^d e^(-x/2) L_j^(d)(x),
    the sign being sign(alpha)^d below the diagonal and (-sign(alpha))^d
    above it. Construction builds what does not depend on s as dim x dim
    (j, d) tables: ½(lnΓ(j+1) - lnΓ(i+1)), binom(i, j) and the recurrence's
    weights (j-1)/i. Entries with j + d >= dim never reach the block: their
    ½ lnΓ term is NaN (numpy's exp is slow on -inf) and their Laguerre value
    0, so they raise no floating-point warning. Each binomial is the exact
    C(i, j) rounded once (inf from i = 1030 on, as scipy's `binom` gives),
    each log-factorial a bitwise port of scipy's `gammaln`, both from cached
    pure functions: instances share no mutable state.
    Each call runs one recurrence over the degree j, vectorized over the
    order d, then gathers the block from the flat (j, d) table: O(N²) work
    per block, against O(N³) for scipy's elementwise Laguerre evaluation.
    The recurrence repeats scipy's scalar loop operation for operation, so
    every entry is bitwise equal to the elementwise closed form wherever
    scipy's `binom` is exact (every entry up to N = 31; it is up to 6.2e-13
    off from (i, j) = (31, 14) on) and within 1e-12 of it elsewhere. Like
    that closed form, entries are non-finite from N ≈ 250 at large |s|,
    where e^(-x/2) underflows to 0 against a Laguerre factor that overflows
    (ROADMAP item 2).
    """

    def __init__(self, dim: int):
        _require("dim", dim, at_least=1, integer=True)
        i, j = np.tril_indices(dim)  # row i and degree j of each entry, d = i - j
        at = j * dim + (i - j)  # its place in the flat (j, d) tables
        binomials, log_factorials = _exact_tables(dim)
        half_lgamma, binom = np.full(dim * dim, np.nan), np.zeros(dim * dim)
        half_lgamma[at] = 0.5 * (log_factorials[j] - log_factorials[i])
        binom[at] = binomials
        self._half_lgamma = half_lgamma.reshape(dim, dim)
        # The recurrence's binomials and weights (j-1)/i, at j >= 2.
        self._binom = binom.reshape(dim, dim)[2:]
        level = np.arange(dim, dtype=float)
        self._weight = (level[2:, None] - 1.0) / (level[2:, None] + level)
        # Block element (n, m) is entry (min(n, m), |n - m|); above the diagonal
        # its sign is (-1)^(n + m) for s > 0, the transpose for s < 0.
        n, sign = np.arange(dim), 1.0 - 2.0 * (level % 2.0)
        self._index = np.minimum.outer(n, n) * dim + np.abs(np.subtract.outer(n, n))
        self._parity = np.where(np.less.outer(n, n), np.multiply.outer(sign, sign), 1.0)
        self.dim = dim

    def _laguerre(self, x: float) -> np.ndarray:
        # scipy's loop for L_n^(a)(x), n >= 2: d = -x/(a+1), p = d + 1, then
        # for k = 1..n-1: d = (-x/((k+a)+1))*p + (k/((k+a)+1))*d, p = d + p;
        # result binom(n+a, n)*p. At degree j = k+1, (k+a)+1 is the exact row
        # i = j+a; the factors -x/i of all steps are one division, t[i - 1].
        # The loop raises no floating-point warnings; neither does this one.
        dim = self.dim
        lag = np.zeros((dim, dim))
        lag[0] = 1.0
        lag[1:2, : dim - 1] = (-x + np.arange(dim - 1.0)) + 1.0
        with np.errstate(all="ignore"):
            d = -x / np.arange(1.0, dim - 1)
            p = d + 1.0
            t = -x / np.arange(1.0, dim)
            # The loop is bound by call overhead: local names, positional outs.
            multiply, add, weight = np.multiply, np.add, self._weight
            for j in range(2, dim):
                w = dim - j
                dj, pj, p = d[:w], p[:w], lag[j, :w]
                multiply(t[j - 1 :], pj, p)
                multiply(weight[j - 2, :w], dj, dj)
                add(p, dj, dj)
                add(dj, pj, p)
            lag[2:] *= self._binom
        return lag

    def __call__(self, s: float) -> np.ndarray:
        """The dim x dim block of exp(-i s p)."""
        _require("s", s)
        if s == 0.0:
            return np.eye(self.dim)
        alpha = s / np.sqrt(2.0)
        x = alpha * alpha
        power = np.arange(self.dim) * np.log(abs(alpha))
        power[0] = 0.0
        magnitude = np.exp((self._half_lgamma + power) - 0.5 * x) * self._laguerre(x)
        parity = self._parity if alpha > 0 else self._parity.T
        return parity * np.take(magnitude, self._index)


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
# Two-mode couplers and their p = 0 contractions
# ---------------------------------------------------------------------------


def _check_coupler_args(kind: str, dim: int) -> None:
    if kind not in COUPLER_KINDS:
        raise ContractViolationError(f"unknown coupler kind {kind!r}; expected one of {COUPLER_KINDS}")
    _require("dim", dim, at_least=1, integer=True)


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
        yield s, n1, matrix_function(hermitian_eig(block), lambda lam: np.exp(1j * lam))


def two_mode_coupler(kind: str, dim: int) -> np.ndarray:
    """Dense dim² x dim² unitary coupler, O(N⁴) in memory.

    Assembled, uncached, from the same BS sector blocks and cached x and p
    spectra as `_p0_output`, which is what the gate and breeding paths use;
    the `pareto` frontier objectives build this one.
    """
    _check_coupler_args(kind, dim)
    if kind == "QND":
        (mu, w), (lam, v) = generator_spectrum("x", dim), generator_spectrum("p", dim)
        x1_p2 = EigenDecomposition(values=np.outer(mu, lam).ravel(), vectors=np.kron(w, v))
        return matrix_function(x1_p2, lambda t: np.exp(-1j * t))
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for s, n1, block in _bs_sector_blocks(dim):
        idx = n1 * dim + (s - n1)
        out[np.ix_(idx, idx)] = block
    return out


@lru_cache(maxsize=8)
def _bs_p0_kernel(dim: int) -> np.ndarray:
    # T[k, n1, n2] = sum_j <p=0|j> <j, k|U_BS|n1, n2>, read-only, from the
    # photon-sector blocks; within sector s, output row k1 leaves k = s - k1
    # photons in mode 2. Breeding conditions many pairs at one dimension, so
    # the last few dimensions are cached.
    _require("dim", dim, at_least=1, integer=True)
    bra = momentum_eigenbra(dim)
    kernel = np.zeros((dim, dim, dim), dtype=complex)
    for s, n1, block in _bs_sector_blocks(dim):
        kernel[(s - n1)[:, None], n1, s - n1] = bra[n1][:, None] * block
    kernel.flags.writeable = False
    return kernel


def _bs_p0_outputs(pairs: np.ndarray) -> np.ndarray:
    """Unnormalized <p = 0|_1 U_BS of each C-contiguous row of dim² two-mode amplitudes
    (mode 1 major): one gemv of the kernel above per row, whatever the batch."""
    dim = math.isqrt(pairs.shape[1])
    return np.matmul(_bs_p0_kernel(dim).reshape(dim, dim * dim), pairs[:, :, None])[:, :, 0]


def _p0_output(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unnormalized mode-2 amplitudes of <p = 0|_1 U (|a> ⊗ |b>), a and b of equal dim.

    BS: `_bs_p0_outputs` of the one row kron(a, b); exact for dim-level
    inputs with a vacuum ancilla.
    QND: exp(-i x1 p2) = (w ⊗ v) diag(exp(-i mu_i lam_j)) (w ⊗ v)† in the
    eigenbases w of x and v of p (`generator_spectrum`); the bra folds into
    w, leaving the dim x dim factor d[n1, j] = sum_i (bra w)_i conj(w[n1, i])
    exp(-i mu_i lam_j), and the output v @ ((a @ d) * (b @ conj(v))) is a
    sum over the dim eigenvalues of p, O(dim²) in time and memory.

    Known error (QND): x1*p2 is exponentiated in the eigenbases of the
    unpadded dim-level x and p, and the output above level dim - 1 is
    dropped before the gate normalizes. It is therefore not exact for inputs
    that fill the space. On the 60-level u = 3, r = 2 squeezed cat with a
    vacuum ancilla it gives F_QND = 0.999804 against the ideal target, where
    the exact channel out(x2) = (2 pi)^(-1/2) int psi(x1) phi_0(x2 - x1) dx1
    gives 0.999535 (= F_BS): a 2.7e-4 fidelity gap.
    """
    dim = a.size
    _check_coupler_args(kind, dim)
    if kind == "BS":
        return _bs_p0_outputs(np.kron(a, b)[None])[0]
    (mu, w), (lam, v) = generator_spectrum("x", dim), generator_spectrum("p", dim)
    d = (w.conj() * (momentum_eigenbra(dim) @ w)) @ np.exp(-1j * np.outer(mu, lam))
    # conj(conj(b) @ v) = b @ conj(v) spares a conjugated copy of v.
    return v @ ((a @ d) * np.conj(b.conj() @ v))


# ---------------------------------------------------------------------------
# Hermite functions and momentum eigenbras
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).tiny
# ln 2 = _LN2_HI + _LN2_LO (fdlibm's split): L * _LN2_HI is exact for |L| < 2^20.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def hermite_functions(n_max: int, t: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions phi_0..phi_n_max on a grid.

    phi_n(t) = H_n(t) exp(-t²/2) / (pi^(1/4) sqrt(2^n n!)), evaluated with
    the stable three-term recurrence (no explicit factorials). Where the
    start phi_0(t) is below the smallest normal float (|t| > 37.6), the
    recurrence runs on a mantissa lifted by 2^L and carries the lift as a
    per-point exponent; a mantissa past 2^500 is rescaled by an exact
    2^-500. So phi_n does not inherit the underflow of phi_0. Every point
    whose start is a normal float has exponent 0, which `ldexp` applies
    exactly, and never reaches the rescale (|phi_n| < 1), so it takes
    exactly the operations of the plain recurrence.
    """
    _require("n_max", n_max, at_least=0, integer=True)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((n_max + 1, t.size))
    q = 0.5 * t * t
    # phi_0 = pi^(-1/4) e^(L ln 2 - q) 2^(-L), with L ln 2 split so the lifted
    # start is exact to rounding; L is capped where every level underflows.
    lift = np.where(np.pi ** (-0.25) * np.exp(-q) < _TINY, np.rint(np.minimum(q, 1e6) / math.log(2.0)), 0.0)
    exponent = -lift.astype(int)
    cur = np.pi ** (-0.25) * np.exp((lift * _LN2_HI - q) + lift * _LN2_LO)
    prev = np.zeros(t.size)
    np.ldexp(cur, exponent, out=out[0])
    for n in range(1, n_max + 1):
        prev, cur = cur, math.sqrt(2.0 / n) * t * cur - math.sqrt((n - 1) / n) * prev
        big = np.abs(cur) > 2.0**500
        if big.any():
            cur[big] *= 2.0**-500
            prev[big] *= 2.0**-500
            exponent[big] += 500
        np.ldexp(cur, exponent, out=out[n])
    return out


def momentum_eigenbra(dim: int) -> np.ndarray:
    """Row vector representing <p = 0| on the truncated Fock basis.

    Entry n is conj(psi_n(0)), where psi_n(p) = (-i)^n phi_n(p) is the
    momentum wavefunction of Fock level n; contracting it against a mode
    evaluates the (unnormalizable) momentum-eigenstate overlap used by
    homodyne post-selection at outcome p = 0.
    """
    _require("dim", dim, at_least=1, integer=True)
    phi = hermite_functions(dim - 1, np.array([0.0]))[:, 0]
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
            raise ContractViolationError("state amplitudes must form a nonempty 1-D vector")
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
    _require("dim", dim, at_least=1, integer=True)
    _require("n", n, at_least=0, at_most=dim - 1, integer=True)
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockState(amps)


def vacuum(dim: int) -> FockState:
    return basis_state(dim, 0)


def expectation(op: np.ndarray, state: FockState) -> float:
    """<psi|op|psi> (real part; intended for Hermitian observables): `_quadratic_forms` of one row."""
    if op.shape != (state.dim, state.dim):
        raise ContractViolationError(
            f"operator shape {op.shape} does not match state dimension {state.dim}"
        )
    return float(_quadratic_forms(op, state.amps[None])[0])


def overlap_fidelity(psi: FockState, phi: FockState) -> float:
    """|<psi|phi>|² for pure states of equal dimension: `_fidelities` of one row."""
    if psi.dim != phi.dim:
        raise ContractViolationError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return _fidelities(psi.amps, phi.amps[None])[0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each complex row, bitwise ``np.linalg.norm(row)``.

    ``linalg.norm`` adds two strided real dots, re·re and im·im; a stacked
    matmul of each row's real and imaginary parts with itself calls the same
    dot per row.
    """
    re, im = rows.real, rows.imag
    return np.sqrt(
        np.matmul(re[:, None, :], re[:, :, None])[:, 0, 0]
        + np.matmul(im[:, None, :], im[:, :, None])[:, 0, 0]
    )


def _quadratic_forms(op: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Re <a|op|a> for each C-contiguous row a: every witness and Q0 expectation.

    A stacked np.matmul over such rows calls, per row, the BLAS gemv and dot
    of the 1-D products, so a row's value does not depend on its batch.
    Other strides fall back to numpy's no-BLAS loop, and one zgemm
    (``rows @ op.T``) sums in another order; either changes the rounding.
    """
    op_rows = np.matmul(op, rows[:, :, None])
    return np.matmul(rows.conj()[:, None, :], op_rows)[:, 0, 0].real


def _fidelities(target: np.ndarray, rows: np.ndarray) -> list[float]:
    """|<target|a>|², clamped at 1, for each C-contiguous row a: every gate fidelity.

    One stacked dot of conj(target) per row, then a scalar abs (hypot) and
    ** 2 (pow) per value: np.abs over a complex array rounds differently, and
    numpy's array ** 2 is x * x (an ulp from pow at x = 0.043889346331312105).
    Swapping target and row leaves every value bitwise.
    """
    overlaps = np.matmul(target.conj(), rows[:, :, None])[:, 0]
    return [min(1.0, abs(z) ** 2) for z in overlaps.tolist()]


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
            # In place, so no step holds another grid-sized array; b + x is x + b bitwise.
            w *= two_alpha
            w /= math.sqrt(d + 1)
            w += b1[where].reshape(w.shape)
        gauss = np.abs(two_alpha) ** 2
        gauss *= -0.5
        np.exp(gauss, out=gauss)
        gauss *= w.real
        gauss /= np.pi
        w = gauss
    if not np.isfinite(w).all():
        radius = np.hypot(xs[:, None], ps)[~np.isfinite(w)].min()
        raise ContractViolationError(f"Wigner sum of {state.dim} levels overflows float64 from radius {radius:.4g}")
    return w
