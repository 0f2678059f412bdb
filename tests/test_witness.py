import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from sqewit import fock, pareto, states, witness
from sqewit.errors import ContractViolationError, OptimizerFailure
from sqewit.states import CatSpec
from sqewit.witness import WitnessSpec

import oracles


def ladder_x4_diag(n):
    # <n|x^4|n> = (3/4)(2n² + 2n + 1), standard ladder algebra.
    return 0.75 * (2 * n * n + 2 * n + 1)


class TestPositionQuartic:
    def test_vacuum_expectation(self):
        w = witness.position_quartic(3.0, 10)
        assert np.real(w[0, 0]) == pytest.approx(3**4 - 3**2 + 0.75, abs=1e-10)
        assert np.real(w[0, 0]) == pytest.approx(72.75, abs=1e-10)

    def test_single_photon_expectation(self):
        w = witness.position_quartic(3.0, 10)
        expected = ladder_x4_diag(1) - 2 * 9 * 1.5 + 81
        assert np.real(w[1, 1]) == pytest.approx(expected, abs=1e-10)
        assert np.real(w[1, 1]) == pytest.approx(57.75, abs=1e-10)

    def test_u_zero_is_pure_quartic(self):
        w = witness.position_quartic(0.0, 8)
        x, _ = fock.quadratures(12)
        ref = np.linalg.matrix_power(x, 4)[:8, :8]
        assert np.max(np.abs(w - ref)) < 1e-12

    def test_ground_state_localizes_at_peaks(self):
        # Eigensolve oracle: the best proxy for a pinned x-eigenstate keeps
        # sinking with dimension (0.626 at N=30, 0.468 at N=40).
        lam30 = fock.hermitian_eig(witness.position_quartic(2.0, 30)).values[0]
        lam40 = fock.hermitian_eig(witness.position_quartic(2.0, 40)).values[0]
        assert lam30 < 0.7
        assert lam40 < 0.5
        assert lam40 < lam30

    def test_positive_semidefinite(self):
        for u in (1.0, 2.5):
            vals = fock.hermitian_eig(witness.position_quartic(u, 25)).values
            assert vals[0] >= -1e-9


class TestMomentumComb:
    def test_prefactor_k1(self):
        # (1)_(1/2) = Gamma(2)/Gamma(3/2) = 2/sqrt(pi)
        assert witness.comb_prefactor(1.0, 1) == pytest.approx(
            (1.0 / math.sqrt(math.pi)) * 2.0 / math.sqrt(math.pi), rel=1e-12
        )
        assert 2.0 / math.sqrt(math.pi) == pytest.approx(1.12838, abs=1e-5)

    def test_vacuum_diagonal_against_quadrature(self):
        # Independent oracle: dense trapezoid quadrature of f(p)|psi_0(p)|².
        w = witness.momentum_comb(1.0, 0.0, 100, 12)
        grid = np.linspace(-10, 10, 400001)
        f = witness.comb_prefactor(1.0, 100) * np.sin(grid) ** 200
        phi0 = fock.hermite_functions(0, grid)[0]
        quad = np.trapezoid(f * phi0 * phi0, grid)
        assert np.real(w[0, 0]) == pytest.approx(quad, rel=1e-10)

    def test_peak_height_of_scalar_ridge(self):
        # sin^2k = 1 at the comb points, so the scalar ridge tops out at the
        # prefactor exactly.
        u, k = 2.0, 50
        pref = witness.comb_prefactor(u, k)
        p1 = math.pi / (2 * u)
        ridge = pref * math.sin(u * p1) ** (2 * k)
        assert ridge == pytest.approx(pref, rel=1e-12)

    def test_hermitian_and_psd(self):
        w = witness.momentum_comb(3.0, 0.7, 100, 24)
        assert fock.hermiticity_defect(w) < 1e-12
        vals = fock.hermitian_eig(w).values
        assert vals[0] >= -1e-10 * vals[-1]

    @settings(max_examples=60, deadline=None)
    @given(u=st.floats(1.0, 4.0), dim=st.integers(1, 118))
    def test_positive_semidefinite(self, u, dim):
        # A sum of projectors is PSD; the sin^2k ridge is nonnegative too. Up
        # to 118 levels no build over u in [1, 4] drops a harmonic.
        w = witness.momentum_comb(u, 0.0, 100, dim)
        assert fock.hermitian_eig(w).values[0] >= -1e-12 * np.abs(w).max()

    def test_harmonics_sum_to_one_at_peak(self):
        ms, cs = witness._sin_power_harmonics(100)
        total = cs[0] + 2 * np.sum(cs[1:] * (-1.0) ** ms[1:])
        assert total == pytest.approx(1.0, rel=1e-12)


class TestCombCutWarning:
    # The cut of `momentum_comb` skips the strongest harmonics of large
    # builds (ROADMAP item 2); each such build warns once, naming them.
    def test_warns_from_159_levels_at_u_2(self):
        named = r"u = 2\.0, dim = 159 drops non-negligible harmonics m = \[1\] \(ROADMAP item 2\)$"
        with pytest.warns(RuntimeWarning, match=named):
            witness.momentum_comb(2.0, 0.0, 100, 159)

    @pytest.mark.parametrize("dim", [6, 158])
    def test_silent_below(self, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            witness.momentum_comb(2.0, 0.0, 100, dim)

    @pytest.mark.parametrize("u, dim, silent", [(0.5, 120, 118), (2.0, 200, 158), (3.0, 230, 211)])
    def test_named_harmonics_are_the_whole_error(self, u, dim, silent):
        # The blocks of `fock.ExactDisplacements` are exact truncations, so
        # the last silent build is the leading block of the larger one, but
        # for the harmonics the larger one drops: exactly those it names.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small = witness.momentum_comb(u, 0.0, 100, silent)
        with pytest.warns(RuntimeWarning) as caught:
            large = witness.momentum_comb(u, 0.0, 100, dim)
        (warning,) = caught
        named = json.loads(re.search(r"m = (\[.*\])", str(warning.message)).group(1))
        cs = witness._sin_power_harmonics(100)[1]
        displace = fock.ExactDisplacements(silent)
        dropped = sum(cs[m] * (displace(-2.0 * m * u) + displace(-2.0 * m * u).T) for m in named)
        want = small - witness.comb_prefactor(u, 100) * dropped
        assert np.abs(large[:silent, :silent] - want).max() < 1e-12


@pytest.mark.filterwarnings("ignore:invalid value encountered in:RuntimeWarning")
def test_non_finite_comb_is_refused_where_it_is_read():
    # From 241 levels at u = 3 the comb overflows to non-finite entries
    # (ROADMAP item 2). `momentum_comb` still returns them (perfbench's
    # `comb_nonfinite_dims` probe counts them at 250 and 300 levels); the
    # witness and the accuracy scan, which read the comb, refuse it by name.
    with pytest.warns(RuntimeWarning, match="dim = 250 drops non-negligible harmonics"):
        assert not np.isfinite(witness.momentum_comb(3.0, 0.0, 100, 250)).all()
    named = r"^momentum comb at u = 3\.0, N = 250 has non-finite entries \(ROADMAP item 2\)$"
    for call in (
        lambda: witness.build_witness(WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=250)),
        lambda: witness.accuracy_scan(3.0, 100, 249),
    ):
        with pytest.warns(RuntimeWarning, match="dim = 250 drops"), pytest.raises(ContractViolationError, match=named):
            call()


def comb_points(u, js):
    # Positions p_j = (2j - 1) pi / (2u) of the phi = 0 projector comb.
    return (2.0 * js - 1.0) * np.pi / (2.0 * u)


class TestExactCombDiagonal:
    def test_vacuum_sum_is_gaussian_comb(self):
        # n=0, u=3, phi=0: sum of e^{-p_j²}/sqrt(pi) over the comb.
        pts = comb_points(3.0, np.arange(-30, 31))
        ref = np.sum(np.exp(-pts * pts)) / math.sqrt(math.pi)
        assert witness.comb_diagonal_exact(3.0, 0)[0] == pytest.approx(ref, rel=1e-12)

    def test_cut_convergence(self):
        # The automatic cut agrees with a far wider sum over j in [-49, 50].
        phi_1 = fock.hermite_functions(1, comb_points(3.0, np.arange(-49, 51)))[1]
        assert witness.comb_diagonal_exact(3.0, 1)[1] == pytest.approx(np.sum(phi_1 * phi_1), abs=1e-10)

    @pytest.mark.parametrize("u", [0.7, 2.0, 3.0, 4.0])
    def test_one_table_equals_per_level_cuts_bitwise(self, u):
        # Every level sums its own full row of the deepest level's table, bit
        # for bit. The terms past a level's own cut lie below its 1e-12 tail
        # bound, so no value is more than 4 ulp from the per-level cuts.
        for n_max in (0, 5, 80):
            cut = int(math.ceil(2.0 * u * (math.sqrt(2.0 * n_max + 1.0) + 10.0) / (2.0 * math.pi) + 0.5)) + 1
            p_j = comb_points(u, np.arange(1 - cut, cut + 1))
            rows = [fock.hermite_functions(n, p_j)[n] for n in range(n_max + 1)]
            got = witness.comb_diagonal_exact(u, n_max)
            assert got.tobytes() == np.array([np.sum(row * row) for row in rows]).tobytes()
            ulps = np.abs(got.view(np.int64) - oracles.comb_diagonal_per_level_cuts(u, n_max).view(np.int64))
            assert ulps.max() <= 4

    def test_reflection_symmetry_at_phi_zero(self):
        # The phi=0 comb is symmetric under j -> 1-j (p_(1-j) = -p_j), so
        # summing one half and doubling reproduces the full diagonal.
        pts = comb_points(3.0, np.arange(1, 40))
        assert np.array_equal(pts, -comb_points(3.0, 1 - np.arange(1, 40)))
        half = fock.hermite_functions(30, pts)
        want = 2.0 * np.sum(half * half, axis=1)
        assert np.allclose(witness.comb_diagonal_exact(3.0, 30), want, rtol=1e-13, atol=0.0)


class TestAccuracyScan:
    def test_u3_regime_matches_papers_contour(self):
        rows = witness.accuracy_scan(3.0, 100, 30)
        errs = np.array([r.rel_error for r in rows])
        # ~90% of levels within 1%, none beyond 1.5% (measured landscape).
        assert np.mean(errs <= 0.01) >= 0.85
        assert errs.max() <= 0.016
        assert errs[:11].max() <= 0.01

    def test_u4_all_within_one_percent(self):
        rows = witness.accuracy_scan(4.0, 100, 30)
        assert max(r.rel_error for r in rows) <= 0.01

    def test_k1_is_grossly_wrong(self):
        rows = witness.accuracy_scan(3.0, 1, 12)
        errs = [r.rel_error for r in rows]
        assert np.mean(np.array(errs) > 0.01) > 0.5

    def test_reads_the_build_at_its_own_depth(self):
        # The diagonal came from a 2 n_max + 2 = 162-level build, where the
        # skip rule of `momentum_comb` drops the m = 1 harmonic (ROADMAP item
        # 2): a largest relative error of 1.65 where the 81-level build gives 0.18.
        rows = witness.accuracy_scan(2.0, 100, 80)
        want = np.real(np.diag(witness.momentum_comb(2.0, 0.0, 100, 81)))
        assert np.array_equal([row.approx for row in rows], want)
        assert max(row.rel_error for row in rows) < 0.2

    @pytest.mark.parametrize("u, n_max", [(1.0, 12), (3.0, 30), (4.0, 30)])
    def test_rows_equal_the_per_level_loop_bitwise(self, u, n_max):
        # The errors are one array step; each equals its level's scalar
        # abs(1 - approx / exact) bit for bit, as Python numbers.
        approx = np.real(np.diag(witness.momentum_comb(u, 0.0, 100, n_max + 1)))
        exact = witness.comb_diagonal_exact(u, n_max)
        want = [(n, float(exact[n]), float(approx[n]), abs(1.0 - float(approx[n]) / float(exact[n]))) for n in range(n_max + 1)]
        rows = witness.accuracy_scan(u, 100, n_max)
        assert [tuple(row) for row in rows] == want
        assert {type(x) for row in rows for x in row} == {int, float}

    def test_u1_n0_regression(self):
        row = witness.accuracy_scan(1.0, 100, 0)[0]
        assert row.exact == pytest.approx(0.095692164458517, rel=1e-9)
        assert row.rel_error == pytest.approx(1.954737197e-02, rel=1e-6)


class TestBuildWitness:
    def test_c_zero_equals_position_part(self):
        spec = WitnessSpec(u=2.0, phi=0.0, c=0.0, dim=14)
        assert np.max(np.abs(witness.build_witness(spec) - witness.position_quartic(2.0, 14))) == 0.0

    def test_ground_below_gaussian_bound_at_dim_20(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=20, k=100)
        lam = fock.hermitian_eig(np.asarray(witness.build_witness(spec))).values[0]
        bound = witness.gaussian_bound(3.0, 10.0, 100).value
        assert lam < bound

    def test_psd_with_scaled_floor(self):
        for spec in (
            WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=16),
            WitnessSpec(u=2.0, phi=math.pi, c=5.0, dim=12),
            WitnessSpec(u=1.5, phi=0.4, c=1.0, dim=10),
        ):
            eig = fock.hermitian_eig(np.asarray(witness.build_witness(spec)))
            assert eig.values[0] >= -1e-8 * abs(eig.values[-1])

    def test_cache_returns_frozen_array(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=8)
        w = witness.build_witness(spec)
        assert w is witness.build_witness(spec)
        assert not w.flags.writeable

    def test_spec_validation(self):
        with pytest.raises(ContractViolationError):
            WitnessSpec(u=-1.0, phi=0.0, c=1.0, dim=5)
        with pytest.raises(ContractViolationError):
            WitnessSpec(u=1.0, phi=0.0, c=-2.0, dim=5)
        with pytest.raises(ContractViolationError):
            WitnessSpec(u=1.0, phi=0.0, c=1.0, dim=5, k=0)


def _displace(s):
    return fock.ExactDisplacements(5)(s)


# Valid keyword arguments of each entry point that refuses non-finite values,
# and a k that is not an integer >= 1, before they reach the numerics.
_VALID_INPUTS = {
    WitnessSpec: {"u": 3.0, "phi": 0.0, "c": 10.0, "dim": 8},
    CatSpec: {"u": 2.0, "r": 0.5, "phi": 0.0, "dim": 8},
    witness.gaussian_bound: {"u": 3.0, "c": 10.0, "k": 100},
    witness.momentum_comb: {"u": 3.0, "phi": 0.0, "k": 100, "dim": 8},
    witness.position_quartic: {"u": 3.0, "dim": 8},
    witness.comb_prefactor: {"u": 3.0, "k": 100},
    witness.comb_diagonal_exact: {"u": 3.0, "n_max": 2},
    witness.accuracy_scan: {"u": 3.0, "k": 100, "n_max": 3},
    _displace: {"s": 1.0},
    witness.squeezed_vacuum_expectation: {"u": 3.0, "c": 10.0, "r": 0.5, "k": 100},
    witness.ratio_db: {"value": 1.0, "benchmark": 2.0},
}


@pytest.mark.parametrize(
    "make, field, bad",
    [
        *((WitnessSpec, field, bad) for field in ("u", "phi", "c") for bad in (math.nan, math.inf, -math.inf)),
        *((CatSpec, field, bad) for field in ("u", "r", "phi") for bad in (math.nan, math.inf, -math.inf)),
        *((witness.gaussian_bound, field, bad) for field in ("u", "c") for bad in (math.nan, math.inf)),
        (witness.gaussian_bound, "k", 0),
        *((witness.momentum_comb, field, bad) for field in ("u", "phi") for bad in (math.nan, math.inf)),
        *((witness.position_quartic, "u", bad) for bad in (math.nan, math.inf)),
        (witness.comb_prefactor, "u", math.nan),
        (witness.comb_diagonal_exact, "u", math.inf),
        (witness.accuracy_scan, "u", math.nan),
        # These named the comb's dim (n_max + 1): "dim must be ... >= 1, got 0".
        *((witness.accuracy_scan, "n_max", bad) for bad in (-1, 2.5)),
        (_displace, "s", math.nan),
        *((make, "k", 100.5) for make in (WitnessSpec, witness.gaussian_bound, witness.momentum_comb)),
        # These returned NaN, inf or a clamped dB value, or raised another error.
        *(
            (witness.squeezed_vacuum_expectation, field, bad)
            for field in ("u", "c", "r")
            for bad in (math.nan, math.inf, -math.inf)
        ),
        (witness.squeezed_vacuum_expectation, "k", math.nan),
        *((witness.ratio_db, field, bad) for field in ("value", "benchmark") for bad in (math.nan, math.inf, -math.inf)),
        # These raised ZeroDivisionError and a bare "math domain error".
        *((witness.ratio_db, "benchmark", bad) for bad in (0.0, -1.0)),
    ],
)
def test_unusable_inputs_are_refused_by_name(make, field, bad):
    with pytest.raises(ContractViolationError, match=f"^{field} must be"):
        make(**{**_VALID_INPUTS[make], field: bad})


def _comb_weight_ratios(k):
    """The sin^2k comb's c_m/c_0 = (-1)^m C(2k, k+m)/C(2k, k), m = 1, 2, ..., exact binomial ratios down to 1e-20."""
    ratios = []
    for m in range(1, k + 1):
        ratio = math.comb(2 * k, k + m) / math.comb(2 * k, k)
        if ratio < 1e-20:
            break
        ratios.append((-1.0) ** m * ratio)
    return np.array(ratios)


def _gaussian_grid_minimum(u, c, k):
    """Brute-force minimum of the witness expectation over Gaussian marginals.

    A pure Gaussian with x-mean mu, x-variance v = e^{-2r}/2, momentum mean 0
    and momentum variance 1/(4v) has E[(x² - u²)²] = mu⁴ + (6v - 2u²) mu² +
    3v² - 2u²v + u⁴, and each harmonic e^{2imup} of the comb averages to
    e^{-m²u²e^{2r}}. The comb weights are exact binomial ratios
    C(2k, k+m)/C(2k, k), with the sin^2k sign (-1)^m. The grid is mu = 0 ...
    1.5u (mu = 0 and mu = u exactly on it) by r = -6 ... 12 plus r = inf, the
    infinitely squeezed limit. At c = 0 only mu = 0 counts: the benchmark of
    the degenerate family is the centered one. Returns the grid minimum and
    its resolution, the largest rise from it to a grid neighbour; a smooth
    minimum between grid points lies less than that below the grid minimum.
    """
    ratios = _comb_weight_ratios(k)
    ms = np.arange(1, ratios.size + 1)
    r = np.append(np.linspace(-6.0, 12.0, 4001), np.inf)
    t = u * u * np.exp(2.0 * r)
    comb = (u * c / math.pi) * (1.0 + 2.0 * (np.exp(-np.outer(t, ms * ms)) @ ratios))
    v = np.exp(-2.0 * r) / 2.0
    mu2 = (u * np.arange(601 if c > 0.0 else 1) / 400.0)[:, None] ** 2
    values = mu2 * mu2 + (6.0 * v - 2.0 * u * u) * mu2 + 3.0 * v * v - 2.0 * u * u * v + u**4 + comb
    i, j = np.unravel_index(np.argmin(values), values.shape)
    neighbours = [
        values[a, b]
        for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
        if 0 <= a < values.shape[0] and 0 <= b < values.shape[1]
    ]
    return float(values[i, j]), float(max(neighbours) - values[i, j])


def _theta3_bound(u, c):
    """The k -> infinity benchmark: the comb priced as the projector comb.

    Its squeezed-vacuum branch is quartic + (u c/pi) sum_n (-1)^n q^{n²} with
    q = e^{-u² e^{2r}}, minimized over r by scipy's bounded Brent search.
    """

    def expectation(r):
        t = u * u * math.exp(2.0 * r)
        n = np.arange(1, math.ceil(math.sqrt(40.0 / t)) + 2)
        theta = 1.0 + 2.0 * float(np.sum((-1.0) ** n * np.exp(-(n * n) * t)))
        return u**4 + 0.75 * math.exp(-4.0 * r) - u * u * math.exp(-2.0 * r) + (u * c / math.pi) * theta

    best = minimize_scalar(expectation, bounds=witness.GAUSSIAN_R_BRACKET, method="bounded", options={"xatol": 1e-10})
    return min(best.fun, u * c / math.pi) if c > 0.0 else best.fun


class TestGaussianBound:
    # u = 0.1 ... 10.0 in steps of 0.1 for four comb weights. Finite-difference
    # probes at the bracket ends, where the branch is flat to rounding,
    # refused 86 of these 400 points, from u = 6.0 at c = 0.
    GRID = [(0.1 * i, c) for i in range(1, 101) for c in (0.0, 5.0, 10.0, 20.0)]

    def test_c_zero_calculus_oracle(self):
        # Stationary point e^{-2r} = 2u²/3 gives min = 2u⁴/3.
        b = witness.gaussian_bound(3.0, 0.0, 100)
        assert b.value == pytest.approx(54.0, abs=1e-6)
        for u in (u for u, c in self.GRID if c == 0.0):
            b = witness.gaussian_bound(u, 0.0, 100)
            assert b.value == pytest.approx(2.0 * u**4 / 3.0, rel=1e-12, abs=0.0), u
            assert b.branch == "squeezed-vacuum"
            assert math.exp(-2 * b.argmin_r) == pytest.approx(2.0 * u * u / 3.0, rel=1e-5), u

    def test_displaced_branch_wins_at_c10(self):
        b = witness.gaussian_bound(3.0, 10.0, 100)
        assert b.value == pytest.approx(30.0 / math.pi, abs=1e-12)
        assert b.value == pytest.approx(9.54930, abs=1e-5)
        assert b.branch == "infinitely-squeezed"
        assert b.argmin_r is None

    def test_c_monotonicity_for_positive_c(self):
        # Both candidate optima grow with c, so the bound is nondecreasing
        # over c > 0. (The degenerate c = 0 point reports the squeezed-vacuum
        # branch instead of the collapsed displaced branch and sits above its
        # small-c neighbors by construction.)
        values = [witness.gaussian_bound(3.0, c, 100).value for c in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_negative_c(self):
        with pytest.raises(ContractViolationError):
            witness.gaussian_bound(3.0, -1.0, 100)

    def test_ordinary_inputs_are_not_refused(self):
        for u, c in self.GRID:
            bound = witness.gaussian_bound(u, c, 100)
            assert math.isfinite(bound.value) and bound.value > 0.0, (u, c)

    def test_minimum_outside_the_bracket_is_refused(self):
        # At c = 0 the minimizer is r* = -ln(2u²/3)/2 = 11.7 for u = 1e-5,
        # beyond the bracket's upper end 10.
        with pytest.raises(OptimizerFailure):
            witness.gaussian_bound(1e-5, 0.0, 100)

    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(0.5, 6.0), c=st.floats(0.0, 50.0), k=st.integers(10, 300))
    @example(u=0.5, c=50.0, k=100)  # old projector-comb bound 0.291163, true minimum 0.30324
    @example(u=0.5, c=50.0, k=20)
    def test_brute_force_gaussian_oracle(self, u, c, k):
        bound = witness.gaussian_bound(u, c, k).value
        grid_min, resolution = _gaussian_grid_minimum(u, c, k)
        # Slack for rounding: at mu = u the quartic cancels terms of size u⁴.
        assert bound <= grid_min + 1e-12 * (grid_min + u**4), (bound, grid_min)
        assert grid_min - bound <= resolution, (bound, grid_min, resolution)

    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(0.3, 6.0), c=st.floats(0.1, 300.0), k=st.integers(10, 300), seed=st.integers(0, 2**32 - 1))
    def test_no_pure_gaussian_beats_the_bound(self, u, c, k, seed):
        # `_gaussian_grid_minimum` scans momentum mean 0 with uncorrelated
        # marginals only. A pure Gaussian with x mean mu, x variance v,
        # momentum mean p0 and momentum variance s/(4v), s = 1 + 4 cov² >= 1,
        # has E[(x² - u²)²] = mu⁴ + (6v - 2u²) mu² + 3v² - 2u²v + u⁴, and each
        # harmonic pair c_m (e^{2imup} + e^{-2imup}) of the comb averages to
        # 2 c_m cos(2mu p0) e^{-m²u²s/(2v)}. Half the draws sit on p0 = 0 and
        # s = 1, where the minimum lies.
        ratios = _comb_weight_ratios(k)
        ms = np.arange(1, ratios.size + 1)
        rng = np.random.default_rng(seed)
        n = 4000
        mu = u * rng.uniform(-1.5, 1.5, n)
        v = np.exp(rng.uniform(math.log(1e-6), math.log(10.0), n))
        general = np.arange(n) % 2 == 1
        p0 = np.where(general, rng.uniform(-math.pi / (2.0 * u), math.pi / (2.0 * u), n), 0.0)
        s = np.where(general, 1.0 + 4.0 * rng.uniform(0.0, 3.0, n) ** 2, 1.0)
        quartic = mu**4 + (6.0 * v - 2.0 * u * u) * mu**2 + 3.0 * v * v - 2.0 * u * u * v + u**4
        harmonics = np.cos(2.0 * u * np.outer(p0, ms)) * np.exp(-np.outer(u * u * s / (2.0 * v), ms * ms))
        values = quartic + (u * c / math.pi) * (1.0 + 2.0 * (harmonics @ ratios))
        bound = witness.gaussian_bound(u, c, k).value
        # Slack for rounding: at mu = u the quartic cancels terms of size u⁴.
        assert values.min() >= bound - 1e-12 * (bound + u**4), (values.min(), bound)

    # u = 0.5 ... 6 in steps of 0.5 for six comb weights.
    K_GRID = [(0.5 * i, c) for i in range(1, 13) for c in (0.0, 1.0, 5.0, 10.0, 20.0, 50.0)]

    def test_nonincreasing_in_k(self):
        # A sharper ridge sits closer to the projector comb, whose Gaussian
        # minimum lies lowest; the slack is rounding.
        ks = (10, 20, 50, 100, 300, 1000, 10_000)
        values = {k: [witness.gaussian_bound(u, c, k).value for u, c in self.K_GRID] for k in ks}
        for k_low, k_high in zip(ks, ks[1:]):
            for (u, c), low, high in zip(self.K_GRID, values[k_low], values[k_high]):
                assert high <= low * (1.0 + 1e-12), (u, c, k_low, k_high)

    def test_projector_comb_limit(self):
        # At k = 10^4 the ridge's harmonic weights are within e^{-m²/k} of
        # the projector comb's (-1)^m.
        for u, c in self.K_GRID:
            assert witness.gaussian_bound(u, c, 10_000).value == pytest.approx(_theta3_bound(u, c), rel=5e-4), (u, c)

    def test_lower_bound_over_random_gaussians(self):
        # 500 squeezed-displaced-rotated vacuums at N=60 must sit above the
        # analytic benchmark.
        dim, pad = 60, 40
        big = dim + pad
        x, p = fock.quadratures(big)
        xeig = fock.hermitian_eig(x)
        peig = fock.hermitian_eig(p)
        a = fock.annihilation(big)
        sq = fock.hermitian_eig(-0.5j * (a @ a - a.conj().T @ a.conj().T))
        seed_vec = np.zeros(big, dtype=complex)
        seed_vec[0] = 1.0
        s_seed = sq.vectors.conj().T @ seed_vec

        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=dim, k=100)
        w = np.asarray(witness.build_witness(spec))
        bound = witness.gaussian_bound(3.0, 10.0, 100).value

        rng = np.random.default_rng(42)
        worst = np.inf
        for _ in range(500):
            r = rng.uniform(-1.2, 1.2)
            dx = rng.uniform(-3.0, 3.0)
            theta = rng.uniform(0.0, 2 * math.pi)
            vec = sq.vectors @ (np.exp(1j * r * sq.values) * s_seed)
            vec = peig.vectors @ (np.exp(-1j * dx * peig.values) * (peig.vectors.conj().T @ vec))
            vec = np.exp(1j * theta * np.arange(big)) * vec
            state = fock.FockState(vec[:dim])
            worst = min(worst, fock.expectation(w, state))
        assert worst >= bound - 1e-3 * bound


class TestSqueezingDb:
    def test_every_caller_benchmarks_at_the_spec_k(self):
        # At u = 0.5, c = 50 the squeezed-vacuum branch wins, so the bound
        # moves with k: k = 20 sits 0.69 dB above k = 100.
        spec = WitnessSpec(u=0.5, phi=0.0, c=50.0, dim=6, k=20)
        bound = witness.gaussian_bound(0.5, 50.0, 20).value
        assert bound != witness.gaussian_bound(0.5, 50.0, 100).value
        vac = fock.vacuum(6)
        report = witness.witness_report(vac, spec)
        assert report["gaussian_bound"] == bound
        assert report["xi_db"] == witness.ratio_db(report["expectation"], bound)
        ground = states.optimal_sqe_approximation(spec)
        assert ground.xi_db == witness.ratio_db(ground.eigenvalue, bound)
        front = pareto.evolve("fidelity", spec, pareto.NsgaConfig(seed=1, population=4, generations=0))
        assert front.points
        for point in front.points:
            assert point.xi_sqe_db == witness.ratio_db(point.objective_1, bound)

    def test_zero_for_ratio_one(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=12)
        bound = witness.gaussian_bound(3.0, 10.0, 100)
        # A state whose expectation equals the bound would read exactly 0 dB;
        # check the formula with the expectation as its own benchmark.
        vac = fock.vacuum(12)
        expect = fock.expectation(np.asarray(witness.build_witness(spec)), vac)
        assert witness.ratio_db(expect, expect) == pytest.approx(0.0, abs=1e-12)
        xi = witness.witness_report(vac, spec)["xi_db"]
        assert xi == witness.ratio_db(expect, bound.value)
        assert xi > 0.0

    def test_ground_state_is_most_negative(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=14)
        w = np.asarray(witness.build_witness(spec))
        eig = fock.hermitian_eig(w)
        ground = fock.FockState(eig.vectors[:, 0])
        xi_ground = witness.witness_report(ground, spec)["xi_db"]
        rng = np.random.default_rng(3)
        for _ in range(20):
            probe = fock.FockState(rng.standard_normal(14) + 1j * rng.standard_normal(14))
            assert witness.witness_report(probe, spec)["xi_db"] >= xi_ground - 1e-12

    def test_dimension_mismatch(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=12)
        with pytest.raises(ContractViolationError):
            witness.witness_report(fock.vacuum(10), spec)

    def test_clamp_at_positivity_floor_warns(self):
        # A PSD expectation that rounds to zero or below is read at the floor.
        floor_db = 10.0 * math.log10(witness.EXPECTATION_FLOOR / 2.0)
        for value in (-1e-3, 0.0, witness.EXPECTATION_FLOOR):
            with pytest.warns(RuntimeWarning, match="positivity floor"):
                assert witness.ratio_db(value, 2.0) == floor_db
        assert witness.ratio_db(4.0, 2.0) == 10.0 * math.log10(2.0)

    def test_ground_xi_nonincreasing_in_dim(self):
        bound = witness.gaussian_bound(3.0, 10.0, 100)
        xis = []
        for dim in range(3, 17):
            spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=dim, k=100)
            lam = fock.hermitian_eig(np.asarray(witness.build_witness(spec))).values[0]
            xis.append(10 * math.log10(lam / bound.value))
        assert all(b <= a + 1e-9 for a, b in zip(xis, xis[1:]))
