import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqewit import fock, states, witness
from sqewit.errors import ContractViolationError, TruncationLossError
from sqewit.states import CatSpec
from sqewit.witness import WitnessSpec

import oracles


class TestSqueezedCat:
    @pytest.mark.parametrize("max_loss", [math.nan, 0.0, -1e-4, 1.5, math.inf])
    def test_max_loss_outside_the_unit_interval_is_refused(self, max_loss):
        # A NaN bound would switch the guard off, and this cat loses 32% of its norm at N = 20.
        with pytest.raises(ContractViolationError, match="^max_loss must be"):
            states.squeezed_cat(CatSpec(u=3.0, r=2.0, phi=0.0, dim=20), max_loss=max_loss)

    def test_degenerate_cat_is_vacuum(self):
        st = states.squeezed_cat(CatSpec(u=0.0, r=0.0, phi=0.0, dim=12))
        assert fock.overlap_fidelity(st, fock.vacuum(12)) == pytest.approx(1.0, abs=1e-12)

    def test_even_cat_parity(self):
        st = states.squeezed_cat(CatSpec(u=2.0, r=0.5, phi=0.0, dim=40))
        assert np.max(np.abs(st.amps[1::2])) < 1e-10

    def test_odd_cat_kills_vacuum_amplitude(self):
        st = states.squeezed_cat(CatSpec(u=1.0, r=0.0, phi=math.pi, dim=24))
        assert abs(st.amps[0]) < 1e-10
        assert np.max(np.abs(st.amps[0::2])) < 1e-10

    def test_unit_norm(self):
        st = states.squeezed_cat(CatSpec(u=3.0, r=1.0, phi=0.3, dim=60))
        assert abs(np.vdot(st.amps, st.amps) - 1.0) < 1e-12

    def test_truncation_guard_names_required_dim(self):
        with pytest.raises(TruncationLossError) as err:
            states.squeezed_cat(CatSpec(u=3.0, r=2.0, phi=0.0, dim=60))
        # The padded 90-level build holds no crop that fits, so its size is
        # named: a lower bound on the fitting dim (215).
        assert err.value.required_dim == 90
        states.squeezed_cat(CatSpec(u=3.0, r=2.0, phi=0.0, dim=220))

    def test_guard_measures_loss_against_exact_norm(self):
        # Exact squared norm 2 + 2 exp(-9 e^4): the 213-level crop loses
        # 1.008e-4 of it, the 215-level crop 9.56e-5. Measured against the
        # padded build's own norm, 213 looked like 9.9e-5 and passed.
        with pytest.raises(TruncationLossError) as err:
            states.squeezed_cat(CatSpec(u=3.0, r=2.0, phi=0.0, dim=213))
        assert err.value.required_dim == 215
        states.squeezed_cat(CatSpec(u=3.0, r=2.0, phi=0.0, dim=215))

    def test_destructive_interference_rejected(self):
        # u = 0, phi = pi: D(0) - D(0) = 0, exact norm 0.
        with pytest.raises(ContractViolationError):
            states.squeezed_cat(CatSpec(u=0.0, r=0.5, phi=math.pi, dim=10))

    def test_peak_positions_in_x(self):
        st = states.squeezed_cat(CatSpec(u=3.0, r=0.8, phi=0.0, dim=50))
        xs = np.linspace(-6, 6, 1201)
        density = np.abs(oracles.position_wavefunction(st, xs)) ** 2
        peak = xs[int(np.argmax(density))]
        assert abs(abs(peak) - 3.0) < 0.05


class TestClosedForm:
    def test_value_at_u3_r0(self):
        # [216/(e^9 + 1) + 75] / 4
        direct = (216.0 / (math.exp(9.0) + 1.0) + 75.0) / 4.0
        assert oracles.even_cat_expectation_closed_form(3.0, 0.0) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(18.7567, abs=2e-4)

    def test_decreasing_in_r(self):
        for u in (1.0, 2.0, 3.0):
            vals = [oracles.even_cat_expectation_closed_form(u, r) for r in np.linspace(0, 4, 30)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_limit_is_zero(self):
        assert oracles.even_cat_expectation_closed_form(2.0, 40.0) == pytest.approx(0.0, abs=1e-12)

    def test_overflow_guard_continuous(self):
        # Near the exp-overflow branch point the two forms agree.
        u = 30.0
        r_low = 0.5 * math.log(699.0 / (u * u))
        r_high = 0.5 * math.log(701.0 / (u * u))
        low = oracles.even_cat_expectation_closed_form(u, r_low)
        high = oracles.even_cat_expectation_closed_form(u, r_high)
        assert high < low
        assert high == pytest.approx(low, rel=1e-2)

    def test_matches_numerical_cat_at_moderate_r(self):
        # Position part only (the comb vanishes on ideal even cats).
        dim = 60
        quartic = witness.position_quartic(2.0, dim)
        for r in (0.0, 0.5, 1.0):
            cat = states.squeezed_cat(CatSpec(u=2.0, r=r, phi=0.0, dim=dim))
            got = fock.expectation(quartic, cat)
            want = oracles.even_cat_expectation_closed_form(2.0, r)
            assert got == pytest.approx(want, rel=0.01)


class TestOptimalApproximation:
    def test_stellar_bound_formula(self):
        # Even sector: the highest even level below dim (N = 4 -> 2, N = 5 -> 4).
        for dim in range(2, 12):
            report = states.optimal_sqe_approximation(WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=dim, k=100))
            assert report.stellar_rank_bound == (dim - 2 if dim % 2 == 0 else dim - 1)

    @pytest.mark.parametrize("dim, sector", [(1, "odd"), (0, "even"), (0, "full"), (5, "parity")])
    def test_stellar_bound_of_an_empty_or_unknown_sector_is_a_contract_violation(self, dim, sector):
        # As for every out-of-range dimension or index in the package.
        with pytest.raises(ContractViolationError):
            states._sector_indices(dim, sector)

    @pytest.mark.parametrize("phi, dim, bound", [(math.pi, 10, 9), (math.pi / 2, 10, 9), (math.pi, 9, 7)])
    def test_stellar_bound_is_the_highest_level_of_the_sector(self, phi, dim, bound):
        # The odd and full sectors reported the even-sector bound (8 at N = 10).
        report = states.optimal_sqe_approximation(WitnessSpec(u=3.0, phi=phi, c=10.0, dim=dim, k=100))
        assert report.stellar_rank_bound == bound
        assert abs(report.state.amps[bound]) > 1e-8
        assert np.all(report.state.amps[bound + 1 :] == 0)

    def test_even_sector_reports(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=8, k=100)
        report = states.optimal_sqe_approximation(spec)
        assert report.sector == "even"
        assert np.max(np.abs(report.state.amps[1::2])) < 1e-12
        assert report.stellar_rank_bound == 6
        # Eigenvalue consistency with the state's own expectation.
        w = np.asarray(witness.build_witness(spec))
        assert fock.expectation(w, report.state) == pytest.approx(report.eigenvalue, abs=1e-9)

    def test_gauge_largest_amplitude_real_positive(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=10, k=100)
        report = states.optimal_sqe_approximation(spec)
        idx = int(np.argmax(np.abs(report.state.amps)))
        lead = report.state.amps[idx]
        assert lead.real > 0
        assert abs(lead.imag) < 1e-12

    def test_odd_sector_for_phi_pi(self):
        spec = WitnessSpec(u=3.0, phi=math.pi, c=10.0, dim=9, k=100)
        report = states.optimal_sqe_approximation(spec)
        assert report.sector == "odd"
        assert abs(report.state.amps[0]) == 0.0
        assert np.max(np.abs(report.state.amps[0::2])) == 0.0

    def test_full_sector_override_can_sit_lower(self):
        # At dim 4 the unrestricted ground is odd and lies below the even
        # sector; the sector-resolved report targets the even superposition.
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=4, k=100)
        even = states.optimal_sqe_approximation(spec)
        full = fock.hermitian_eig(witness.build_witness(spec))
        assert even.sector == "even"
        assert full.values[0] <= even.eigenvalue
        assert np.max(np.abs(full.vectors[0::2, 0])) < 1e-12  # odd ground

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.floats(1.0, 4.0),
        c=st.floats(-1.0, math.log10(300.0)).map(lambda e: 10.0**e),
        phi=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.1, 3.0)),
        dim=st.integers(2, 117),
    )
    @example(u=3.0, c=10.0, phi=0.0, dim=5)
    def test_eigenvalue_nonincreasing_with_ties(self, u, c, phi, dim):
        # Cauchy interlacing: the N-level sector block is a leading block of
        # the (N + 1)-level one, so the ground eigenvalue cannot rise. Up to
        # 118 levels no build over u in [1, 4] drops a comb harmonic (the
        # first that does, at u = 1, has 119, and its warning is an error here).
        small, large = (rep.eigenvalue for rep in states.ground_state_sweep(u, phi, c, [dim, dim + 1], k=100))
        assert large <= small + 1e-12 * max(1.0, abs(small))
        # A parity sector only grows when the new level has its parity, so the
        # other dimensions tie.
        if states._sector_for_phase(phi) == ("even" if dim % 2 else "odd"):
            assert large == pytest.approx(small, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.floats(1.0, 4.0),
        c=st.floats(-1.0, math.log10(300.0)).map(lambda e: 10.0**e),
        phi=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.1, 3.0)),
        dim=st.integers(2, 117),
    )
    @example(u=3.0, c=10.0, phi=0.0, dim=12)
    def test_xi_is_read_from_the_recorded_eigenvalue(self, u, c, phi, dim):
        # The record's squeezing is its own eigenvalue over the Gaussian
        # bound, bitwise; the state's expectation agrees to rounding. Up to
        # 117 levels no build over u in [1, 4] drops a comb harmonic.
        spec = WitnessSpec(u=u, phi=phi, c=c, dim=dim, k=100)
        report = states.optimal_sqe_approximation(spec)
        assert report.xi_db == witness.ratio_db(report.eigenvalue, witness.gaussian_bound(u, c, 100).value)
        from_state = witness.witness_report(report.state, spec)["xi_db"]
        assert abs(from_state - report.xi_db) <= 1e-9 * max(1.0, abs(report.xi_db))

    def test_deterministic(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=12, k=100)
        a = states.optimal_sqe_approximation(spec)
        b = states.optimal_sqe_approximation(spec)
        assert np.array_equal(a.state.amps, b.state.amps)


class TestGateTargets:
    def test_qnd_target_degenerates_to_vacuum(self):
        st = states.ideal_gate_target("QND", 0.0, 0.0, 16)
        assert fock.overlap_fidelity(st, fock.vacuum(16)) == pytest.approx(1.0, abs=1e-12)

    def test_bs_target_variance_at_small_u(self):
        # u -> 0 leaves a vacuum squeezed by ln2/2: var_x = 1/4.
        st = states.ideal_gate_target("BS", 1e-8, 0.0, 40)
        x, _ = fock.quadratures(40)
        assert fock.expectation(x @ x, st) == pytest.approx(0.25, rel=1e-6)

    def test_bs_target_peaks_at_u_over_sqrt2(self):
        st = states.ideal_gate_target("BS", 3.0, 0.0, 40)
        xs = np.linspace(-5, 5, 2001)
        density = np.abs(oracles.position_wavefunction(st, xs)) ** 2
        peak = abs(xs[int(np.argmax(density))])
        assert peak == pytest.approx(3.0 / math.sqrt(2.0), abs=0.05)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolationError):
            states.ideal_gate_target("XY", 1.0, 0.0, 10)


class TestSqueezingConvention:
    def test_positive_r_narrows_x(self):
        # Pinned convention: S(r) with r > 0 reduces the x variance, which
        # is what makes the closed form decrease with r.
        dim = 40
        x, _ = fock.quadratures(dim)
        sq = fock.FockState(fock.squeeze(0.7, dim)[:, 0])
        assert fock.expectation(x @ x, sq) < 0.5
