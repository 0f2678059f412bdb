import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from sqewit import breeding, fock, gates, states
from sqewit.errors import ContractViolationError, ProjectionAnnihilatedError
from sqewit.states import CatSpec

import oracles


class TestConditionalOutput:
    def test_vacuum_resource_bs(self):
        out = gates.couple_and_condition(fock.vacuum(12), fock.vacuum(12), "BS")
        assert fock.overlap_fidelity(out.output, fock.vacuum(12)) == pytest.approx(1.0, abs=1e-10)
        assert out.success_norm == pytest.approx(math.pi ** -0.25, abs=1e-10)

    def test_single_photon_resource_bs(self):
        # psi_1(0) = 0, so only the |0,1> branch survives the projection.
        out = gates.couple_and_condition(fock.basis_state(12, 1), fock.vacuum(12), "BS")
        assert fock.overlap_fidelity(out.output, fock.basis_state(12, 1)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_high_squeezing_qnd_limit(self):
        cat = states.squeezed_cat(CatSpec(u=3.0, r=2.0, phi=0.0, dim=50), max_loss=0.1)
        out = gates.couple_and_condition(cat, fock.vacuum(cat.dim), "QND")
        target = states.ideal_gate_target("QND", 3.0, 0.0, 50)
        assert fock.overlap_fidelity(out.output, target) > 0.99

    def test_projection_annihilation(self):
        # In two levels the n1 + n2 = 2 sector is |1,1> alone, which the beam
        # splitter leaves in place; <p=0|1> = 0 (odd Hermite zero) kills it.
        one = fock.basis_state(2, 1)
        with pytest.raises(ProjectionAnnihilatedError):
            gates.couple_and_condition(one, one, "BS")

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolationError):
            gates.couple_and_condition(fock.vacuum(8), fock.vacuum(10), "BS")

    @pytest.mark.parametrize("kind", ["bs", "Qnd", "CZ"])
    def test_coupler_kind_is_spelled_as_in_coupler_kinds(self, kind):
        # The kinds are "BS" and "QND" exactly; the CLI's case-insensitive
        # choice is the one place that folds case. Every route refuses
        # another spelling with one message.
        vac = fock.vacuum(4)
        for call in (
            lambda: gates.couple_and_condition(vac, vac, kind),
            lambda: gates.gate_report(vac, kind, 2.0, 0.0),
            lambda: states.ideal_gate_target(kind, 2.0, 0.0, 4),
            lambda: fock.two_mode_coupler(kind, 4),
        ):
            with pytest.raises(ContractViolationError, match=f"^unknown coupler kind '{kind}'"):
                call()

    def test_success_norm_bounded_by_bra_norm(self):
        rng = np.random.default_rng(11)
        bra_norm = np.linalg.norm(fock.momentum_eigenbra(14))
        for _ in range(25):
            resource = fock.FockState(rng.standard_normal(14) + 1j * rng.standard_normal(14))
            out = gates.couple_and_condition(resource, fock.vacuum(resource.dim), "BS")
            assert 0.0 < out.success_norm <= bra_norm + 1e-12


@functools.lru_cache(maxsize=4)
def _qnd_kernel_oracle(dim):
    # The dim³ QND kernel T[k, n1, n2] = sum_j v[k, j] d[n1, j] conj(v[n2, j]),
    # formed in full as a small-N reference for the gate's O(dim²) route;
    # T.reshape(dim, dim²) @ kron(a, b) is the unnormalized conditioned output.
    (mu, w), (lam, v) = fock.generator_spectrum("x", dim), fock.generator_spectrum("p", dim)
    d = (w.conj() * (fock.momentum_eigenbra(dim) @ w)) @ np.exp(-1j * np.outer(mu, lam))
    return ((v[:, None, :] * d[None, :, :]) @ v.conj().T).reshape(dim, dim * dim)


class TestP0Kernel:
    """The p = 0 contractions: agreement with the dense route, and their footprint."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 10), kind=st.sampled_from(fock.COUPLER_KINDS))
    def test_matches_dense_expm_route(self, data, dim, kind):
        parts = arrays(np.float64, (2, 2 * dim), elements=st.floats(-1.0, 1.0))
        a, b = (v[:dim] + 1j * v[dim:] for v in data.draw(parts))
        assume(min(np.linalg.norm(a), np.linalg.norm(b)) > 0.1)
        mode1, mode2 = fock.FockState(a), fock.FockState(b)
        sign = 1j if kind == "BS" else -1j
        joint = expm(sign * oracles.coupler_generator(kind, dim)) @ np.kron(mode1.amps, mode2.amps)
        want = fock.momentum_eigenbra(dim) @ joint.reshape(dim, dim)
        norm = np.linalg.norm(want)
        assume(norm > 1e-3)
        got = gates.couple_and_condition(mode1, mode2, kind)
        assert np.max(np.abs(got.output.amps - want / norm)) <= 1e-12
        assert abs(got.success_norm - norm) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        dim=st.one_of(st.integers(1, 16), st.sampled_from([30, 60])),
        vacuum_ancilla=st.booleans(),
    )
    def test_qnd_factor_matches_cubic_kernel_oracle(self, data, dim, vacuum_ancilla):
        parts = arrays(np.float64, (2, 2 * dim), elements=st.floats(-1.0, 1.0))
        a, b = (v[:dim] + 1j * v[dim:] for v in data.draw(parts))
        assume(np.linalg.norm(a) > 0.1 and (vacuum_ancilla or np.linalg.norm(b) > 0.1))
        mode1 = fock.FockState(a)
        mode2 = fock.vacuum(dim) if vacuum_ancilla else fock.FockState(b)
        want = _qnd_kernel_oracle(dim) @ np.kron(mode1.amps, mode2.amps)
        norm = np.linalg.norm(want)
        assume(norm > 1e-6)
        raw = fock._p0_output("QND", mode1.amps, mode2.amps)
        assert np.max(np.abs(raw - want)) <= 1e-13 * norm
        got = gates.couple_and_condition(mode1, mode2, "QND")
        assert np.max(np.abs(got.output.amps * got.success_norm - want)) <= 1e-13 * norm
        assert np.max(np.abs(got.output.amps - want / norm)) <= 1e-13
        assert abs(got.success_norm - norm) <= 1e-13 * norm

    def test_qnd_gate_holds_no_cubic_array(self):
        # An N³ kernel at N = 200 is 128 MB, built through a temporary as large.
        dim = 200
        state = states.squeezed_cat(CatSpec(u=3.0, r=0.5, phi=0.0, dim=dim))
        fock.generator_spectrum.cache_clear()
        tracemalloc.start()
        try:
            gates.couple_and_condition(state, fock.vacuum(dim), "QND")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_gate_and_breed_peak_memory(self):
        # At N = 80 the dense coupler alone would take 655 MB; the BS kernel
        # is 80³ complex entries (8 MB) and the QND factor 80² (100 kB).
        cat = states.squeezed_cat(CatSpec(u=3.0, r=0.5, phi=0.0, dim=80))
        fock._bs_p0_kernel.cache_clear()
        jobs = (
            lambda: gates.couple_and_condition(cat, fock.vacuum(cat.dim), "BS"),
            lambda: gates.couple_and_condition(cat, fock.vacuum(cat.dim), "QND"),
            lambda: breeding.breed_protocol(cat, 2),
        )
        for job in jobs:
            tracemalloc.start()
            try:
                job()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20


class TestXRepresentationOracle:
    """Slow dual-route check: quadrature of the convolution integrals."""

    @staticmethod
    def _project_on_fock(xs, omega, dim):
        phi = fock.hermite_functions(dim - 1, xs)
        coeffs = np.trapezoid(phi * omega[None, :], xs, axis=1)
        return fock.FockState(coeffs)

    def test_conditional_outputs_match_integral_forms(self):
        dim = 24
        resource = states.squeezed_cat(CatSpec(u=2.0, r=0.5, phi=0.0, dim=dim))
        xs = np.arange(-14.0, 14.0, 0.01)
        r_wave = np.real(oracles.position_wavefunction(resource, xs))

        def vac(t):
            return math.pi ** -0.25 * np.exp(-0.5 * t * t)

        vac_wave = vac(xs)

        # QND: convolution with the vacuum wave packet.
        omega_qnd = np.trapezoid(r_wave[None, :] * vac(xs[:, None] - xs[None, :]), xs, axis=1)
        got = gates.couple_and_condition(resource, fock.vacuum(resource.dim), "QND").output
        want = self._project_on_fock(xs, omega_qnd, dim)
        assert fock.overlap_fidelity(got, want) > 1.0 - 1e-6

        # BS: the sqrt(2)-contracted correlation form.
        arg_r = (xs[None, :] - xs[:, None]) / math.sqrt(2.0)
        arg_v = (xs[:, None] + xs[None, :]) / math.sqrt(2.0)
        r_interp = np.interp(arg_r, xs, r_wave, left=0.0, right=0.0)
        omega_bs = np.trapezoid(r_interp * vac(arg_v), xs, axis=1)
        got_bs = gates.couple_and_condition(resource, fock.vacuum(resource.dim), "BS").output
        want_bs = self._project_on_fock(xs, omega_bs, dim)
        assert fock.overlap_fidelity(got_bs, want_bs) > 1.0 - 1e-6


class TestInteractionFidelity:
    def test_equality_of_couplings_on_cat_family(self):
        for u in (2.0, 3.0):
            for r in (0.5, 1.0):
                for phi in (0.0, math.pi):
                    cat = states.squeezed_cat(CatSpec(u=u, r=r, phi=phi, dim=50), max_loss=0.01)
                    f_bs = gates.gate_report(cat, "BS", u, phi)["fidelity"]
                    f_qnd = gates.gate_report(cat, "QND", u, phi)["fidelity"]
                    assert abs(f_bs - f_qnd) <= 1e-4, (u, r, phi)

    def test_vacuum_resource_regression(self):
        f = gates.gate_report(fock.vacuum(60), "BS", 3.0, 0.0)["fidelity"]
        assert f == pytest.approx(0.093867812213857, rel=1e-9)

    def test_monotone_resource_quality(self):
        # F_BS rises with the resource squeezing while the cat still fits;
        # the r = 2.0 grid point dips below r = 1.6 because the 60-level crop
        # of that resource loses norm. The BS kernel itself is exact for
        # N-level inputs with a vacuum ancilla.
        fids = []
        for r in (0.0, 0.4, 0.8, 1.2, 1.6):
            cat = states.squeezed_cat(CatSpec(u=3.0, r=r, phi=0.0, dim=60), max_loss=0.01)
            fids.append(gates.gate_report(cat, "BS", 3.0, 0.0)["fidelity"])
        assert all(b >= a for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.999

    def test_gauge_independence(self):
        cat = states.squeezed_cat(CatSpec(u=2.0, r=0.5, phi=0.0, dim=40))
        rotated = fock.FockState(np.exp(1j * 1.234) * cat.amps)
        f0 = gates.gate_report(cat, "BS", 2.0, 0.0)["fidelity"]
        f1 = gates.gate_report(rotated, "BS", 2.0, 0.0)["fidelity"]
        assert abs(f0 - f1) < 1e-12

    def test_truncation_stability_50_vs_60(self):
        for u, r in ((3.0, 0.8), (2.0, 1.0)):
            f50 = gates.gate_report(
                states.squeezed_cat(CatSpec(u=u, r=r, phi=0.0, dim=50), max_loss=0.01), "BS", u, 0.0
            )["fidelity"]
            f60 = gates.gate_report(
                states.squeezed_cat(CatSpec(u=u, r=r, phi=0.0, dim=60), max_loss=0.01), "BS", u, 0.0
            )["fidelity"]
            assert abs(f50 - f60) < 1e-3

    def test_gate_report_fields(self):
        report = gates.gate_report(fock.vacuum(20), "BS", 2.0, 0.0)
        assert set(report) == {"fidelity", "success_norm"}
        assert 0.0 <= report["fidelity"] <= 1.0
