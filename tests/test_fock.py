import functools
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import binom, eval_genlaguerre, gammaln

import oracles
import pins
from sqewit import fock, states, witness
from sqewit.errors import ContractViolationError
from sqewit.witness import WitnessSpec


def test_annihilation_small():
    a = fock.annihilation(2)
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
    a4 = fock.annihilation(4)
    assert np.allclose(np.diag(a4, k=1), np.sqrt([1, 2, 3]))
    assert np.count_nonzero(a4 - np.diag(np.diag(a4, k=1), k=1)) == 0


def test_number_operator_diagonal():
    a = fock.annihilation(7)
    n_op = a.conj().T @ a
    assert np.allclose(np.diag(n_op), np.arange(7))


def test_annihilation_rejects_zero_dim():
    with pytest.raises(ContractViolationError):
        fock.annihilation(0)


@pytest.mark.parametrize(
    "func, args",
    [
        (fock.hermite_functions, (-1, np.zeros(3))),
        (fock.momentum_eigenbra, (0,)),
        (fock.crop, (np.eye(3), -1)),
        (fock.crop, (np.eye(3), 0)),
        (fock.crop, (np.eye(3), 5)),
        (witness.comb_diagonal_exact, (2.0, -1)),
    ],
    ids=["hermite_n_max=-1", "eigenbra_dim=0", "crop=-1", "crop=0", "crop=5_of_3", "comb_n=-1"],
)
def test_out_of_range_dimension_or_index_raises_contract_violation(func, args):
    # They raised IndexError or ValueError, or returned a wrong block or 0.0.
    with pytest.raises(ContractViolationError):
        func(*args)


def test_quadrature_moments():
    x, p = fock.quadratures(10)
    assert fock.is_hermitian(x) and fock.is_hermitian(p)
    vac = fock.vacuum(10)
    assert fock.expectation(x @ x, vac) == pytest.approx(0.5, abs=1e-12)
    for n in range(8):
        state = fock.basis_state(10, n)
        assert fock.expectation(x @ x, state) == pytest.approx(n + 0.5, abs=1e-12)


def test_commutator_on_truncated_block():
    x, p = fock.quadratures(12)
    comm = x @ p - p @ x
    # Truncation corrupts only the last row/column.
    assert np.allclose(comm[:11, :11], 1j * np.eye(12)[:11, :11], atol=1e-12)


def test_hermitian_eig_diagonal_and_x():
    eig = fock.hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(eig.values, [1, 2, 3])
    x2, _ = fock.quadratures(2)
    vals = fock.hermitian_eig(x2).values
    assert np.allclose(vals, [-1 / math.sqrt(2), 1 / math.sqrt(2)])
    n_op = np.diag(np.arange(9.0)).astype(complex)
    assert np.allclose(fock.hermitian_eig(n_op).values, np.arange(9))


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        fock.hermitian_eig(fock.annihilation(5))


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m = (m + m.conj().T) / 2
        eig = fock.hermitian_eig(m)
        recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.max(np.abs(recon - m)) <= 1e-10 * max(1.0, np.max(np.abs(m)))
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-10


def test_matrix_function_identity_exp_trig():
    x, _ = fock.quadratures(14)
    x_eig = fock.hermitian_eig(x)
    assert np.allclose(fock.matrix_function(x_eig, lambda lam: lam), x, atol=1e-12)
    zero = fock.hermitian_eig(np.zeros((5, 5), dtype=complex))
    assert np.allclose(fock.matrix_function(zero, np.exp), np.eye(5))
    sin2 = fock.matrix_function(x_eig, lambda lam: np.sin(lam) ** 2)
    cos2 = fock.matrix_function(x_eig, lambda lam: np.cos(lam) ** 2)
    assert np.max(np.abs(sin2 + cos2 - np.eye(14))) <= 1e-10


def test_matrix_function_domain_error():
    x_eig = fock.hermitian_eig(fock.quadratures(6)[0])
    with pytest.raises(ContractViolationError):
        fock.matrix_function(x_eig, lambda lam: np.where(lam > 0, np.log(np.abs(lam)), np.nan))


def test_displacement_identity_and_amplitudes():
    assert np.allclose(fock.displacement_x(0.0, 8), np.eye(8))
    u = 1.0
    d = fock.displacement_x(u, 40)
    n = np.arange(40)
    # Coherent amplitude oracle <n|D_x(u)|0> = e^{-u²/4} (u/√2)^n / √n!
    ref = np.exp(-u * u / 4) * (u / math.sqrt(2)) ** n / np.exp(0.5 * gammaln(n + 1))
    assert np.max(np.abs(d[:, 0] - ref)) < 1e-10
    state = fock.FockState(d[:, 0])
    x, _ = fock.quadratures(40)
    assert fock.expectation(x, state) == pytest.approx(u, abs=1e-6)


def test_displacement_inverse_on_low_levels():
    d_fwd = fock.displacement_x(1.0, 40)
    d_bwd = fock.displacement_x(-1.0, 40)
    prod = d_bwd @ d_fwd
    assert np.max(np.abs(prod[:20, :20] - np.eye(40)[:20, :20])) < 1e-8


def test_displacement_crop_consistency():
    # Against the closed-form block: the top half of the padded build is
    # exact to rounding (measured <= 2.4e-15 for |u| <= 3 at N = 25 and 40);
    # the lower rows are not (6e-5 at u = 3, N = 40) and are not compared.
    for dim in (25, 40):
        half = dim // 2
        for u in (0.6, 1.0, -1.7, 2.0, 2.5, 3.0):
            padded = fock.displacement_x(u, dim)[:half, :half]
            exact = _exact_displacement(u, dim)[:half, :half]
            assert np.max(np.abs(padded - exact)) < 1e-14, f"u={u}, N={dim}"


def test_displacement_exact_matches_padded():
    # At u <= 1.7 the whole 25-level block already agrees with the closed form.
    for s in (0.6, -1.7):
        exact = _exact_displacement(s, 25)
        padded = fock.displacement_x(s, 25)
        assert np.max(np.abs(exact - padded)) < 1e-12


def _exact_displacement(s, dim):
    return fock.ExactDisplacements(dim)(s)


def _exact_displacement_oracle(s, dim):
    # The elementwise closed form that `ExactDisplacements` replaced: one
    # O(j) scipy Laguerre loop per matrix element, O(N³) per block.
    if s == 0.0:
        return np.eye(dim)
    alpha = s / np.sqrt(2.0)
    x = alpha * alpha
    n = np.arange(dim)
    nn, mm = np.meshgrid(n, n, indexing="ij")
    i = np.maximum(nn, mm)
    j = np.minimum(nn, mm)
    d = i - j
    log_mag = (
        0.5 * (gammaln(j + 1) - gammaln(i + 1))
        + np.where(d > 0, d * np.log(abs(alpha)), 0.0)
        - 0.5 * x
    )
    lag = eval_genlaguerre(j, d, x)
    sign = np.where(nn >= mm, np.sign(alpha) ** d, (-np.sign(alpha)) ** d)
    return sign * np.exp(log_mag) * lag


def _with_warnings(func, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = func(*args)
    return result, {(w.category, str(w.message)) for w in caught}


@functools.cache
def _exact_binomials():
    # float(C(i, j)) for 0 <= j <= i < 400, each exact integer rounded once.
    out = np.zeros((400, 400))
    for i in range(400):
        out[i, : i + 1] = [float(math.comb(i, j)) for j in range(i + 1)]
    return out


@settings(max_examples=60, deadline=None)
@given(s=st.floats(-60.0, 60.0), dim=st.integers(1, 300))
@example(s=60.0, dim=300)
@example(s=-60.0, dim=300)
@example(s=0.0, dim=5)
def test_displacement_exact_bitwise_equals_elementwise_closed_form(s, dim):
    # The closed form takes its binomials from scipy's `binom`, which for
    # min(j, i - j) >= 20 is up to 6.2e-13 off the exact ones (first at
    # (i, j) = (31, 14)). Where scipy's binomial is exact the two
    # constructions are bitwise equal; elsewhere they agree to 1e-12. Entries
    # are non-finite from N ~ 250 at large |s| (ROADMAP item 2); the two
    # agree on those too, NaN for NaN.
    want, want_warnings = _with_warnings(_exact_displacement_oracle, s, dim)
    got, got_warnings = _with_warnings(_exact_displacement, s, dim)
    n = np.arange(dim)
    i, j = np.maximum.outer(n, n), np.minimum.outer(n, n)
    exact = binom(i, j) == _exact_binomials()[i, j]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got[exact], want[exact], equal_nan=True)
    got, want = got[~exact], want[~exact]
    with np.errstate(divide="ignore", invalid="ignore"):
        close = np.abs(got / want - 1.0) <= 1e-12
    assert np.all(close | (got == want) | np.isnan(want))
    assert got_warnings <= want_warnings


def _fresh_tables():
    # Cold caches of the binomial rows and log-factorials; they are pure, so
    # clearing them only costs the next build its tables.
    fock._binomial_row.cache_clear()
    fock._log_factorial.cache_clear()


def test_exact_tables_hold_rounded_exact_binomials():
    _fresh_tables()
    binomials, log_factorials = fock._exact_tables(400)
    assert np.array_equal(binomials, _exact_binomials()[np.tril_indices(400)])
    assert np.array_equal(log_factorials, gammaln(np.arange(1, 401)))


def test_exact_tables_independent_of_build_order():
    # Jobs of one process share the tables, so a block must not depend on
    # the dimensions built before it.
    _fresh_tables()
    fock._exact_tables(40)
    grown = fock._exact_tables(300)
    _fresh_tables()
    built = fock._exact_tables(300)
    assert all(np.array_equal(a, b) for a, b in zip(grown, built))
    _fresh_tables()
    first = [fock.ExactDisplacements(40)(s) for s in (-6.0, 0.7, 3.0)]
    fock.ExactDisplacements(300)
    again = [fock.ExactDisplacements(40)(s) for s in (-6.0, 0.7, 3.0)]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_exact_tables_round_overflowing_binomials_to_inf():
    # From row 1030 on the central binomials pass the largest float. They
    # round to inf, the IEEE rounding of the exact integer, on the entries
    # where scipy's `binom` gives inf.
    binomials, _ = fock._exact_tables(1040)
    for i in (1029, 1030, 1039):
        row = binomials[i * (i + 1) // 2 :][: i + 1]
        want = [float(c) if c < 2**1024 - 2**970 else math.inf for c in map(math.comb, [i] * (i + 1), range(i + 1))]
        assert np.array_equal(row, want)
        assert np.array_equal(np.isinf(row), np.isinf(binom(i, np.arange(i + 1))))
    assert not np.isinf(binomials[: 1030 * 1031 // 2]).any()
    assert np.isinf(binomials[1030 * 1031 // 2 :]).any()


def test_exact_displacements_built_in_threads_equal_serial_builds():
    # Eight threads build blocks at eight dimensions at once from cold tables,
    # switching every microsecond: each block is bitwise its serial build,
    # and a later serial build at a larger dimension is unchanged.
    dims, s = (10, 40, 80, 120, 160, 200, 240, 280), 2.7
    serial = {dim: fock.ExactDisplacements(dim)(s).tobytes() for dim in (*dims, 300)}
    barrier = threading.Barrier(len(dims))

    def build(dim):
        barrier.wait()
        return fock.ExactDisplacements(dim)(s).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _fresh_tables()
            with ThreadPoolExecutor(len(dims)) as pool:
                built = list(pool.map(build, dims))
            assert [got == serial[dim] for got, dim in zip(built, dims)] == [True] * len(dims)
    finally:
        sys.setswitchinterval(interval)
    assert fock.ExactDisplacements(300)(s).tobytes() == serial[300]


@pytest.mark.parametrize("s", [-6.0, 0.7, 20.0])
def test_displacement_exact_diagonal_past_binomial_overflow(s):
    # The diagonal's binomials are 1, so it stays finite and bitwise the
    # closed form's, exp(-x/2) L_n(x), where off-diagonal binomials are inf.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = np.diag(fock.ExactDisplacements(1040)(s))
    x = (s / np.sqrt(2.0)) ** 2
    want = np.exp(-0.5 * x) * eval_genlaguerre(np.arange(1040), 0, x)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    extra=st.integers(0, 199),
    s=st.floats(allow_nan=False, allow_infinity=False),
)
def test_displacement_exact_block_is_the_crop_of_every_larger_build(n, extra, s):
    # The exact truncation of exp(-i s p) does not depend on the build size:
    # `witness.accuracy_scan` reads its n_max + 1-level diagonal on this.
    # Bitwise, NaN entries of large |s| included.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        small = fock.ExactDisplacements(n)(s)
        large = fock.ExactDisplacements(min(n + extra, 200))(s)
    assert small.tobytes() == large[:n, :n].tobytes()


@pytest.mark.parametrize("s", [-6.0, -36.0, 0.7, 60.0])
def test_displacement_exact_block_of_double_build(s):
    for dim in (1, 2, 3, 40, 100):
        assert np.array_equal(_exact_displacement(s, 2 * dim)[:dim, :dim], _exact_displacement(s, dim))


def test_displacement_exact_warns_only_where_closed_form_did():
    # At the workload's N <= 200 neither construction warns; at N = 300 the
    # closed form warns once (0 * inf in the final product) and the
    # recurrence adds nothing.
    for dim, s in [(200, -6.0), (200, -60.0), (160, -24.0), (300, -6.0), (300, -60.0), (300, 60.0)]:
        _, want = _with_warnings(_exact_displacement_oracle, s, dim)
        _, got = _with_warnings(_exact_displacement, s, dim)
        assert got <= want, (dim, s, got - want)
        if dim <= 200:
            assert got == set()
    displace = fock.ExactDisplacements(300)
    _, got = _with_warnings(displace, -60.0)
    assert got == {(RuntimeWarning, "invalid value encountered in multiply")}


def test_exact_displacements_reuse_tables():
    displace = fock.ExactDisplacements(30)
    for s in (-2.0, 3.5, -2.0):
        assert np.array_equal(displace(s), _exact_displacement_oracle(s, 30))
    with pytest.raises(ContractViolationError):
        fock.ExactDisplacements(0)


def test_squeeze_variance_and_parity():
    s = fock.squeeze(1.0, 60)
    sv = fock.FockState(s[:, 0])
    x, _ = fock.quadratures(60)
    var = fock.expectation(x @ x, sv)
    assert var == pytest.approx(math.exp(-2) / 2, rel=0.01)
    assert np.max(np.abs(sv.amps[1::2])) < 1e-12
    assert np.allclose(fock.squeeze(0.0, 10), np.eye(10))


def test_gate_unitarity_on_low_levels():
    # Unitarity of a cropped gate holds on the levels whose images stay
    # inside the space: half the space for moderate displacements, a
    # quarter for weak squeezing (squeezed level n spreads to ~n cosh 2r).
    dim = 60
    d = fock.displacement_x(2.0, dim)
    prod = d.conj().T @ d
    assert np.max(np.abs(prod[:30, :30] - np.eye(dim)[:30, :30])) < 1e-8
    s = fock.squeeze(0.3, dim)
    prod = s.conj().T @ s
    assert np.max(np.abs(prod[:15, :15] - np.eye(dim)[:15, :15])) < 1e-8


def test_two_mode_coupler_matches_generic_route():
    n = 10
    for kind, sign in (("QND", -1j), ("BS", 1j)):
        gen = oracles.coupler_generator(kind, n)
        eig = fock.hermitian_eig(gen)
        ref = (eig.vectors * np.exp(sign * eig.values)) @ eig.vectors.conj().T
        assert np.max(np.abs(fock.two_mode_coupler(kind, n) - ref)) < 1e-12


def test_bs_generator_conserves_photon_number():
    n = 9
    gen = oracles.coupler_generator("BS", n)
    total = np.add.outer(np.arange(n), np.arange(n)).ravel()
    off_sector = gen[~np.equal.outer(total, total)]
    assert np.max(np.abs(off_sector)) == 0.0


def test_bs_on_vacuum_and_single_photon():
    n = 12
    bs = fock.two_mode_coupler("BS", n)
    v00 = np.kron(fock.vacuum(n).amps, fock.vacuum(n).amps)
    assert np.max(np.abs(bs @ v00 - v00)) < 1e-8
    v10 = np.kron(fock.basis_state(n, 1).amps, fock.vacuum(n).amps)
    out = (bs @ v10).reshape(n, n)
    assert abs(out[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-6)
    assert abs(out[0, 1]) ** 2 == pytest.approx(0.5, abs=1e-6)


def test_qnd_vacuum_output_variance():
    n = 30
    qnd = fock.two_mode_coupler("QND", n)
    v = qnd @ np.kron(fock.vacuum(n).amps, fock.vacuum(n).amps)
    x, _ = fock.quadratures(n)
    x2_sq = np.kron(np.eye(n), x @ x)
    assert np.real(np.vdot(v, x2_sq @ v)) == pytest.approx(1.0, abs=1e-4)


def test_coupler_unitarity_on_low_total_photon_block():
    n = 16
    total = np.add.outer(np.arange(n), np.arange(n)).ravel()
    low = total <= n // 2
    for kind in ("QND", "BS"):
        u = fock.two_mode_coupler(kind, n)
        prod = u.conj().T @ u
        block = prod[np.ix_(low, low)] - np.eye(int(low.sum()))
        assert np.max(np.abs(block)) < 1e-8


def test_momentum_eigenbra_values():
    bra = fock.momentum_eigenbra(6)
    assert bra[0] == pytest.approx(math.pi ** -0.25, abs=1e-12)
    assert bra[1] == pytest.approx(0.0, abs=1e-14)
    # |psi_2(0)|² against an independent direct Hermite evaluation.
    direct = (4 * 0.0**2 - 2) / math.sqrt(2**2 * 2) * math.pi ** -0.25
    assert abs(bra[2]) ** 2 == pytest.approx(direct**2, rel=1e-12)
    assert abs(bra[2]) == pytest.approx(math.sqrt(2) / (2 * math.pi**0.25), rel=1e-12)


def test_hermite_functions_orthonormal():
    grid = np.linspace(-12, 12, 6001)
    phi = fock.hermite_functions(8, grid)
    overlaps = np.trapezoid(phi[:, None, :] * phi[None, :, :], grid, axis=-1)
    assert np.max(np.abs(overlaps - np.eye(9))) < 1e-8


@pytest.mark.parametrize("levels", [700, 800, 1000])
def test_hermite_functions_orthonormal_past_the_start_underflow(levels):
    # phi_0 underflows past |t| = 37.6, and the recurrence carried its 0 up to
    # every level: the Gram defect was 3.2e-10 at 700 levels, 0.16 at 800
    # and 0.34 at 1000 on this grid.
    t, step = pins.hermite_grid(levels)
    h = fock.hermite_functions(levels - 1, t)
    assert np.max(np.abs((h * step) @ h.T - np.eye(levels))) <= 1e-12


def test_hermite_functions_bitwise_where_the_start_is_a_normal_float():
    # The lifted recurrence touches only points whose phi_0 is subnormal or
    # 0; elsewhere every value is that of the plain recurrence.
    t = np.concatenate([np.linspace(-37.6, 37.6, 3001), [-40.0, 39.0, 45.0]])
    got = fock.hermite_functions(400, t)
    want = np.zeros_like(got)
    want[0] = np.pi ** (-0.25) * np.exp(-0.5 * t * t)
    want[1] = np.sqrt(2.0) * t * want[0]
    for n in range(2, 401):
        want[n] = np.sqrt(2.0 / n) * t * want[n - 1] - np.sqrt((n - 1) / n) * want[n - 2]
    assert np.array_equal(got[:, :-3], want[:, :-3])
    assert np.all(want[:, -3:] == 0.0) and np.all(got[-1, -3:] != 0.0)


def test_state_normalization_and_errors():
    st = fock.FockState(np.array([3.0, 4.0]))
    assert np.linalg.norm(st.amps) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ContractViolationError):
        fock.FockState(np.zeros(4))
    with pytest.raises(ContractViolationError):
        fock.basis_state(3, 5)


def test_overlap_fidelity():
    a = fock.vacuum(5)
    b = fock.basis_state(5, 1)
    assert fock.overlap_fidelity(a, a) == pytest.approx(1.0, abs=1e-14)
    assert fock.overlap_fidelity(a, b) == pytest.approx(0.0, abs=1e-14)
    c = fock.FockState(np.array([1.0, 1.0, 0, 0, 0]) / math.sqrt(2))
    assert fock.overlap_fidelity(a, c) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ContractViolationError):
        fock.overlap_fidelity(a, fock.vacuum(6))


def test_wigner_vacuum_and_single_photon():
    xs = np.linspace(-4, 4, 81)
    ps = np.linspace(-4, 4, 81)
    w_vac = fock.wigner(fock.vacuum(6), xs, ps)
    assert w_vac[40, 40] == pytest.approx(1 / math.pi, abs=1e-10)
    w_one = fock.wigner(fock.basis_state(6, 1), xs, ps)
    assert w_one[40, 40] == pytest.approx(-1 / math.pi, abs=1e-10)


def test_wigner_normalization_riemann():
    step = 0.05
    xs = np.arange(-6, 6 + step / 2, step)
    w = fock.wigner(fock.basis_state(10, 3), xs, xs)
    assert float(np.sum(w)) * step * step == pytest.approx(1.0, abs=1e-3)


def test_wigner_even_state_point_symmetry():
    half = np.arange(0.1, 4.05, 0.1)
    grid = np.concatenate([-half[::-1], [0.0], half])
    amps = np.zeros(9)
    amps[[0, 2, 4, 8]] = [1.0, -0.5, 0.25, 0.1]
    w = fock.wigner(fock.FockState(amps), grid, grid)
    assert np.array_equal(w, w[::-1, ::-1])


def test_wigner_rejects_empty_grid():
    with pytest.raises(ContractViolationError):
        fock.wigner(fock.vacuum(4), np.array([]), np.array([0.0]))


def _wigner_quadrature(amps, x, p, step=0.01, half=40.0):
    """W(x, p) = (1/pi) ∫ psi*(x+y) psi(x-y) e^{2ipy} dy by the trapezoid rule.

    The integrand is smooth and decays like e^{-y²} beyond the state's
    support, so the rule converges spectrally at this step.
    Hermite functions underflow past |t| ~ 38, so it serves up to N = 300.
    """
    y = np.arange(-half, half + step / 2, step)
    phi_plus = fock.hermite_functions(amps.size - 1, x + y)
    phi_minus = fock.hermite_functions(amps.size - 1, x - y)
    integrand = (amps.conj() @ phi_plus) * (amps @ phi_minus) * np.exp(2j * p * y)
    return float(np.real(np.sum(integrand))) * step / np.pi


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return fock.FockState(amps / np.linalg.norm(amps))


@st.composite
def _wigner_states(draw):
    kind = draw(st.sampled_from(["random", "fock", "ground"]))
    if kind == "ground":  # the comb has non-finite entries from N ≈ 250 (ROADMAP item 2)
        dim = draw(st.sampled_from([2, 9, 40, 120, 200]))
        phi = draw(st.sampled_from([0.0, math.pi, math.pi / 2]))
        return states.optimal_sqe_approximation(WitnessSpec(u=3.0, phi=phi, c=10.0, dim=dim)).state
    dim = draw(st.integers(1, 300))
    if kind == "fock":
        return fock.basis_state(dim, draw(st.integers(0, dim - 1)))
    return _random_state(dim, draw(st.integers(0, 2**32 - 1)))


_COORDS = st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=2)  # points within radius 10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(state=_wigner_states(), xs=_COORDS, ps=_COORDS)
@example(state=_random_state(120, 4), xs=[0.3, -2.0], ps=[1.1, 6.5])
@example(state=fock.basis_state(300, 299), xs=[-6.9], ps=[6.9])
@example(
    state=states.optimal_sqe_approximation(WitnessSpec(u=3.0, phi=math.pi, c=10.0, dim=40)).state,
    xs=[-3.0, 2.5],
    ps=[0.0, 1.9],
)
def test_wigner_matches_quadrature_oracle(state, xs, ps):
    w = fock.wigner(state, np.array(xs), np.array(ps))
    want = np.array([[_wigner_quadrature(state.amps, x, p) for p in ps] for x in xs])
    assert np.max(np.abs(w - want)) <= 1e-12
    assert np.max(np.abs(w)) <= 1 / math.pi + 1e-12


def test_wigner_overflow_raises_instead_of_returning_nan():
    # Far out at large N the Clenshaw sum leaves float64 before the Gaussian
    # factor brings it back; the error names the dimension and the radius.
    state = _random_state(300, 0)
    grid = np.array([-40.0, 0.0, 30.0])
    with pytest.raises(ContractViolationError, match=r"300 levels overflows float64 from radius 30"):
        fock.wigner(state, grid, grid)
    inside = fock.wigner(state, np.array([0.0, 10.0]), np.array([0.0, -10.0]))
    assert np.isfinite(inside).all()


def test_wigner_memory_is_linear_in_the_grid():
    # The README grid (±6, step 0.05, 241 × 241) at N = 60; a work array of
    # N × grid complex entries would take 56 MB.
    grid = np.arange(-120, 121) * 0.05
    state = _random_state(60, 1)
    tracemalloc.start()
    try:
        fock.wigner(state, grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
