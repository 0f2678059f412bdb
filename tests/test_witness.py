import math

import numpy as np
import pytest

from sqewit import fock, witness
from sqewit.errors import ContractViolationError
from sqewit.witness import WitnessSpec


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

    def test_harmonics_sum_to_one_at_peak(self):
        ms, cs = witness._sin_power_harmonics(100)
        total = cs[0] + 2 * np.sum(cs[1:] * (-1.0) ** ms[1:])
        assert total == pytest.approx(1.0, rel=1e-12)


class TestExactCombDiagonal:
    def test_vacuum_sum_is_gaussian_comb(self):
        # n=0, u=3, phi=0: sum of e^{-p_j²}/sqrt(pi) over the comb.
        js = np.arange(-30, 31)
        pts = witness.comb_points(3.0, 0.0, js)
        ref = np.sum(np.exp(-pts * pts)) / math.sqrt(math.pi)
        assert witness.comb_diagonal_exact(3.0, 0.0, 0) == pytest.approx(ref, rel=1e-12)

    def test_cut_convergence(self):
        a = witness.comb_diagonal_exact(3.0, 0.0, 1)
        b = witness.comb_diagonal_exact(3.0, 0.0, 1, j_cut=50)
        assert a == pytest.approx(b, abs=1e-10)

    def test_reflection_symmetry_at_phi_zero(self):
        # The phi=0 comb is symmetric under j -> 1-j; summing one half and
        # mirroring must reproduce the full result.
        js = np.arange(1, 40)
        pts = witness.comb_points(3.0, 0.0, js)
        mirrored = witness.comb_points(3.0, 0.0, 1 - js)
        assert np.allclose(pts, -mirrored)


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
        bound = witness.gaussian_bound(3.0, 10.0).value
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


class TestGaussianBound:
    def test_theta_at_zero_nome(self):
        assert witness.theta3_half_pi(0.0) == 1.0

    def test_theta_matches_direct_sum(self):
        q = 0.4
        direct = sum((-1.0) ** n * q ** (n * n) for n in range(-60, 61))
        assert witness.theta3_half_pi(q) == pytest.approx(direct, rel=1e-14)

    def test_c_zero_calculus_oracle(self):
        # Stationary point e^{-2r} = 2u²/3 gives min = 2u⁴/3.
        b = witness.gaussian_bound(3.0, 0.0)
        assert b.value == pytest.approx(54.0, abs=1e-6)
        assert b.branch == "squeezed-vacuum"
        assert math.exp(-2 * b.argmin_r) == pytest.approx(6.0, rel=1e-5)

    def test_displaced_branch_wins_at_c10(self):
        b = witness.gaussian_bound(3.0, 10.0)
        assert b.value == pytest.approx(30.0 / math.pi, abs=1e-12)
        assert b.value == pytest.approx(9.54930, abs=1e-5)
        assert b.branch == "infinitely-squeezed"
        assert b.argmin_r is None

    def test_c_monotonicity_for_positive_c(self):
        # Both candidate optima grow with c, so the bound is nondecreasing
        # over c > 0. (The degenerate c = 0 point reports the squeezed-vacuum
        # branch instead of the collapsed displaced branch and sits above its
        # small-c neighbors by construction.)
        values = [witness.gaussian_bound(3.0, c).value for c in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_negative_c(self):
        with pytest.raises(ContractViolationError):
            witness.gaussian_bound(3.0, -1.0)

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
        bound = witness.gaussian_bound(3.0, 10.0).value

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
    def test_zero_for_ratio_one(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=12)
        bound = witness.gaussian_bound(3.0, 10.0)
        # A state whose expectation equals the bound would read exactly 0 dB;
        # check the formula through a synthetic bound.
        vac = fock.vacuum(12)
        expect = fock.expectation(np.asarray(witness.build_witness(spec)), vac)
        synthetic = witness.GaussianBound(value=expect, branch="squeezed-vacuum", argmin_r=0.0)
        assert witness.sqe_squeezing_db(vac, spec, synthetic) == pytest.approx(0.0, abs=1e-12)
        assert witness.sqe_squeezing_db(vac, spec, bound) > 0.0

    def test_ground_state_is_most_negative(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=14)
        w = np.asarray(witness.build_witness(spec))
        eig = fock.hermitian_eig(w)
        ground = fock.FockState(eig.vectors[:, 0])
        xi_ground = witness.sqe_squeezing_db(ground, spec)
        rng = np.random.default_rng(3)
        for _ in range(20):
            probe = fock.FockState(rng.standard_normal(14) + 1j * rng.standard_normal(14))
            assert witness.sqe_squeezing_db(probe, spec) >= xi_ground - 1e-12

    def test_dimension_mismatch(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=12)
        with pytest.raises(ContractViolationError):
            witness.sqe_squeezing_db(fock.vacuum(10), spec)

    def test_clamp_at_positivity_floor_warns(self):
        # A PSD expectation that rounds to zero or below is read at the floor.
        floor_db = 10.0 * math.log10(witness.EXPECTATION_FLOOR / 2.0)
        for value in (-1e-3, 0.0, witness.EXPECTATION_FLOOR):
            with pytest.warns(RuntimeWarning, match="positivity floor"):
                assert witness.ratio_db(value, 2.0) == floor_db
        assert witness.ratio_db(4.0, 2.0) == 10.0 * math.log10(2.0)

    def test_ground_xi_nonincreasing_in_dim(self):
        bound = witness.gaussian_bound(3.0, 10.0)
        xis = []
        for dim in range(3, 17):
            spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=dim, k=100)
            lam = fock.hermitian_eig(np.asarray(witness.build_witness(spec))).values[0]
            xis.append(10 * math.log10(lam / bound.value))
        assert all(b <= a + 1e-9 for a, b in zip(xis, xis[1:]))
