import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from sqewit import breeding, fock, states
from sqewit.errors import ContractViolationError, OptimizerFailure
from sqewit.states import CatSpec

import oracles

U_GRID = 2.0 * math.sqrt(math.pi)


def _make_candidate(params, dim, xeig, peig, seig, s_seed) -> fock.FockState:
    # The Gaussian candidate as one unfactored chain: each factor goes into
    # and out of its eigenbasis. The oracle of `breeding._CandidateObjective`.
    r, dx, dp = params
    vec = seig.vectors @ (np.exp(1j * r * seig.values) * s_seed)
    vec = xeig.vectors @ (np.exp(1j * dp * xeig.values) * (xeig.vectors.conj().T @ vec))
    vec = peig.vectors @ (np.exp(-1j * dx * peig.values) * (peig.vectors.conj().T @ vec))
    return fock.FockState(vec[:dim])


class TestBreedRound:
    def test_vacuum_fixed_point(self):
        vac = fock.vacuum(16)
        out = breeding.breed_protocol(vac, 1).final
        assert fock.overlap_fidelity(out, vac) == pytest.approx(1.0, abs=1e-10)

    def test_hong_ou_mandel_oracle(self):
        # Hand computation: BS turns |1,1> into (|2,0> - |0,2>)/sqrt(2);
        # contracting <p=0| leaves psi_2(0)|0> - psi_0(0)|2> up to phases,
        # i.e. probabilities 1/3 on |0> and 2/3 on |2>.
        one = fock.basis_state(8, 1)
        probs = np.abs(breeding.breed_protocol(one, 1).final.amps) ** 2
        assert probs[0] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert probs[2] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert probs[[1, 3, 4, 5, 6, 7]].max() < 1e-12

    def test_peak_spacing_contracts_per_round(self):
        # Each beam-splitter convolution divides the x-comb spacing by
        # sqrt(2); two rounds halve it.
        dim = 60
        cat = states.squeezed_cat(CatSpec(u=4.0, r=1.2, phi=0.0, dim=dim), max_loss=0.01)
        xs = np.linspace(-8, 8, 3201)

        def peak_spacing(state):
            density = np.abs(oracles.position_wavefunction(state, xs)) ** 2
            keep = density > 0.15 * density.max()
            idx = np.nonzero(keep[1:-1] & (np.diff(density)[:-1] > 0) & (np.diff(density)[1:] < 0))[0] + 1
            peaks = xs[idx]
            return float(np.mean(np.diff(peaks)))

        run = breeding.breed_protocol(cat, 2)
        s0 = peak_spacing(cat)
        s1 = peak_spacing(run.outputs_per_round[0])
        s2 = peak_spacing(run.outputs_per_round[1])
        assert s1 / s0 == pytest.approx(1 / math.sqrt(2), rel=0.05)
        assert s2 / s1 == pytest.approx(1 / math.sqrt(2), rel=0.05)
        assert s0 == pytest.approx(8.0, rel=0.05)


class TestBreedProtocol:
    def test_zero_rounds_identity(self):
        cat = states.squeezed_cat(CatSpec(u=2.0, r=0.5, phi=0.0, dim=24))
        run = breeding.breed_protocol(cat, 0)
        assert run.final is cat
        assert run.outputs_per_round == [] and run.success_norms == []

    def test_two_rounds_on_vacuum(self):
        vac = fock.vacuum(20)
        run = breeding.breed_protocol(vac, 2)
        assert fock.overlap_fidelity(run.final, vac) == pytest.approx(1.0, abs=1e-10)
        assert run.success_norms[0] == pytest.approx(run.success_norms[1], abs=1e-12)

    def test_determinism_bitwise(self):
        cat = states.squeezed_cat(CatSpec(u=U_GRID, r=1.2, phi=0.0, dim=60))
        a = breeding.breed_protocol(cat, 2)
        b = breeding.breed_protocol(cat, 2)
        for x, y in zip(a.outputs_per_round, b.outputs_per_round):
            assert np.array_equal(x.amps, y.amps)
        assert a.success_norms == b.success_norms

    def test_parity_preserved(self):
        cat = states.squeezed_cat(CatSpec(u=U_GRID, r=1.2, phi=0.0, dim=60))
        run = breeding.breed_protocol(cat, 2)
        for out in run.outputs_per_round:
            assert np.max(np.abs(out.amps[1::2])) <= 1e-8

    def test_success_norms_bounded(self):
        bra_norm = float(np.linalg.norm(fock.momentum_eigenbra(60)))
        cat = states.squeezed_cat(CatSpec(u=U_GRID, r=1.0, phi=0.0, dim=60))
        run = breeding.breed_protocol(cat, 2)
        assert all(0.0 < s <= bra_norm for s in run.success_norms)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ContractViolationError):
            breeding.breed_protocol(fock.vacuum(8), -1)


class TestGridWitness:
    def test_vacuum_oracle(self):
        # Characteristic-function derivation: <2 sin²(l x)> = 1 - e^{-l²}.
        q0 = breeding.build_q0(60)
        want = (1.0 - math.exp(-math.pi / 4.0)) + (1.0 - math.exp(-math.pi))
        assert fock.expectation(q0, fock.vacuum(60)) == pytest.approx(want, abs=1e-10)

    def test_spectrum_bounds(self):
        vals = fock.hermitian_eig(np.asarray(breeding.build_q0(40))).values
        assert vals[0] >= -1e-8
        assert vals[-1] <= 4.0 + 1e-8

    def test_x_p_asymmetry(self):
        # The two comb periods differ by a factor 2, so swapping x and p
        # changes the operator.
        dim = 30
        x, p = map(fock.hermitian_eig, fock.quadratures(dim + 40))
        term_x = fock.crop(fock.matrix_function(x, lambda t: 2 * np.sin(t * math.sqrt(math.pi) / 2) ** 2), dim)
        term_p = fock.crop(fock.matrix_function(p, lambda t: 2 * np.sin(t * math.sqrt(math.pi)) ** 2), dim)
        assert np.max(np.abs(np.diag(term_x) - np.diag(term_p))) > 0.05

    def test_padding_stability(self):
        # Against the same operator built 80 levels deep (measured 4.9e-15).
        dim = 30
        x, p = map(fock.hermitian_eig, fock.quadratures(dim + 80))
        term_x = fock.crop(fock.matrix_function(x, lambda t: 2 * np.sin(t * math.sqrt(math.pi) / 2) ** 2), dim)
        term_p = fock.crop(fock.matrix_function(p, lambda t: 2 * np.sin(t * math.sqrt(math.pi)) ** 2), dim)
        assert np.max(np.abs(np.asarray(breeding.build_q0(dim)) - (term_x + term_p))) < 1e-12


class TestGaussianMinimum:
    def test_below_vacuum(self):
        vac_value = (1.0 - math.exp(-math.pi / 4.0)) + (1.0 - math.exp(-math.pi))
        gmin = breeding.gkp_witness(80).gaussian_min
        assert gmin <= vac_value
        assert 0.95 <= gmin <= 1.06

    def test_displacement_periodicity(self):
        dim = 80
        q0 = breeding.build_q0(dim)
        objective = breeding._CandidateObjective(q0)
        machinery = objective.xeig, objective.peig, objective.seig, objective.s_seed
        a = _make_candidate((0.4, 0.3, 0.2), dim, *machinery)
        b = _make_candidate((0.4, 0.3 + 2 * math.sqrt(math.pi), 0.2), dim, *machinery)
        assert fock.expectation(q0, a) == pytest.approx(fock.expectation(q0, b), abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from([6, 30]),
        r=st.floats(*breeding._R_BOX),
        dx=st.floats(0.0, breeding._DX_PERIOD),
        dp=st.floats(0.0, breeding._DP_PERIOD),
    )
    def test_objective_equals_unfactored_chain_bitwise(self, dim, r, dx, dp):
        q0 = breeding.gkp_witness(dim).matrix
        objective = breeding._CandidateObjective(q0)
        machinery = objective.xeig, objective.peig, objective.seig, objective.s_seed
        want = fock.expectation(q0, _make_candidate((r, dx, dp), dim, *machinery))
        assert objective.values(np.array([[r, dx, dp]])).tolist() == [want]
        # The grid's route at the same point.
        assert objective.grid_values(r, np.array([dx]), np.array([dp])).tolist() == [want]

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.sampled_from([6, 30]),
        points=st.lists(
            st.tuples(
                st.floats(breeding._R_BOX[0] - 1.0, breeding._R_BOX[1] + 1.0),
                st.floats(-1.0, breeding._DX_PERIOD + 1.0),
                st.floats(-1.0, breeding._DP_PERIOD + 1.0),
            ),
            min_size=1,
            max_size=13,
        ),
    )
    def test_batch_equals_unfactored_chain_bitwise(self, dim, points):
        # One `values` call on 1-13 points, in and out of the box, against the
        # oracle chain one point at a time, byte for byte: a point's value
        # does not depend on the batch it is scored in. `_gaussian_min` sends
        # batches of up to 12 (four start-simplex points for each of three runs).
        q0 = breeding.gkp_witness(dim).matrix
        objective = breeding._CandidateObjective(q0)
        machinery = objective.xeig, objective.peig, objective.seig, objective.s_seed
        want = [fock.expectation(q0, _make_candidate(point, dim, *machinery)) for point in points]
        assert objective.values(np.array(points)).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("dim", [6, 30])
    def test_start_grid_equals_per_point_chain_bitwise(self, dim):
        # `_gaussian_min`'s 13 x 9 x 7 start grid, scored one r at a time in
        # (dx, dp) order, and the same 819 points as one `values` batch,
        # against the oracle chain one point at a time: all 819 values, byte
        # for byte (the gaussian_min_q0 pins see only the minimum).
        q0 = breeding.gkp_witness(dim).matrix
        objective = breeding._CandidateObjective(q0)
        machinery = objective.xeig, objective.peig, objective.seig, objective.s_seed
        rs = np.linspace(breeding._R_BOX[0], breeding._R_BOX[1], 13)
        dxs = np.linspace(0.0, breeding._DX_PERIOD, 9, endpoint=False)
        dps = np.linspace(0.0, breeding._DP_PERIOD, 7, endpoint=False)
        grid = [(r, dx, dp) for r in rs for dx in dxs for dp in dps]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.concatenate([objective.grid_values(r, dxs, dps) for r in rs])
            batch = objective.values(np.array(grid))
        want = np.array([fock.expectation(q0, _make_candidate(point, dim, *machinery)) for point in grid])
        assert got.shape == (819,)
        assert got.tobytes() == want.tobytes()
        assert batch.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [*range(2, 21), 30, 40, 60])
    def test_lockstep_equals_each_refinement_alone(self, dim):
        # The three refinements driven together give what each gives alone,
        # and the benchmark is the best of the grid and those three, in hex.
        q0 = breeding.build_q0(dim)
        objective = breeding._CandidateObjective(q0)
        rs = np.linspace(breeding._R_BOX[0], breeding._R_BOX[1], 13)
        dxs = np.linspace(0.0, breeding._DX_PERIOD, 9, endpoint=False)
        dps = np.linspace(0.0, breeding._DP_PERIOD, 7, endpoint=False)
        grid = np.array([objective.values(np.array([[r, dx, dp]]))[0] for r in rs for dx in dxs for dp in dps])
        order = np.argsort(grid, kind="stable")
        starts = [(rs[j // 63], dxs[j // 7 % 9], dps[j % 7]) for j in order[:3]]

        def runs():
            return [breeding._nelder_mead(s, _LOWER, _UPPER, xatol=1e-7, fatol=1e-12, maxiter=2000) for s in starts]

        together = breeding._lockstep(objective.values, runs())
        alone = [breeding._lockstep(objective.values, [run])[0] for run in runs()]
        for (f, x, ok), (g, y, ok_alone) in zip(together, alone):
            assert (np.float64(f).tobytes(), x.tobytes(), ok) == (np.float64(g).tobytes(), y.tobytes(), ok_alone)
        best = min([float(grid[order[0]])] + [float(f) for f, _, _ in alone])
        assert breeding._gaussian_min(q0).hex() == best.hex()

    def test_eigensolves_shared_and_cached(self, monkeypatch):
        # Q0, its Gaussian candidates and the padded gate targets share one
        # spectral cache: gkp_witness(40) solves x, p and squeeze at 80 levels,
        # and the four targets (both kinds, u = 2 and 3) p and squeeze at 90.
        calls = []
        eigh = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix.shape[0])
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        breeding.gkp_witness.cache_clear()
        fock.generator_spectrum.cache_clear()
        try:
            breeding.gkp_witness(40)
            for _ in range(2):
                before = len(calls)
                for kind in fock.COUPLER_KINDS:
                    for u in (2.0, 3.0):
                        states.ideal_gate_target(kind, u, 0.0, 40)
            assert len(calls) <= 5, calls
            assert len(calls) == before, "repeated targets solved again"
            eig = fock.generator_spectrum("p", 90)
            with pytest.raises(ValueError):
                eig.vectors[0, 0] = 0.0
            with pytest.raises(ValueError):
                eig.values[0] = 0.0
        finally:
            breeding.gkp_witness.cache_clear()
            fock.generator_spectrum.cache_clear()

    def test_truncation_drift_80_vs_100(self):
        # The box minimum sits at strong squeezing where truncation bites;
        # measured drift is ~3e-3 between these dimensions (not the 1e-4 a
        # fully converged benchmark would show).
        g80 = breeding.gkp_witness(80).gaussian_min
        g100 = breeding.gkp_witness(100).gaussian_min
        assert abs(g80 - g100) < 5e-3


_LOWER = np.array([breeding._R_BOX[0], 0.0, 0.0])
_UPPER = np.array([breeding._R_BOX[1], breeding._DX_PERIOD, breeding._DP_PERIOD])


@functools.cache
def _q0_objective(dim):
    return breeding._CandidateObjective(breeding.gkp_witness(dim).matrix)


def _staircase(x):
    # Piecewise constant: plateaus tie vertices, and neither contraction
    # improves on a plateau, so the search shrinks.
    return float(np.sum(np.floor(8.0 * (x - 0.3)) ** 2))


def _holed_staircase(x):
    # NaN on a slab across the box: comparisons with NaN must branch as
    # scipy's do, and a NaN vertex left at maxiter makes the minimum NaN.
    return math.nan if 1.0 < x[0] < 2.0 else _staircase(x)


_OBJECTIVES = {"staircase": _staircase, "holed_staircase": _holed_staircase}


def _batched(fun):
    """A plain function of one point as a `values` function of a batch."""
    return lambda points: np.array([fun(x) for x in points], dtype=float)


def _drive(values, x0, maxiter, points):
    """`_nelder_mead` from x0, alone through `_lockstep`, appending a copy of
    each point it evaluates to points."""

    def recorded(batch):
        points.extend(np.array(batch, copy=True))
        return values(batch)

    run = breeding._nelder_mead(x0, _LOWER, _UPPER, xatol=1e-7, fatol=1e-12, maxiter=maxiter)
    (result,) = breeding._lockstep(recorded, [run])
    return result


def _run_both(objective, x0, maxiter):
    """`_nelder_mead` and scipy's bounded Nelder-Mead from one start, with
    the points each evaluated, as bytes. A Q0 objective is scored through
    its batch route on our side, one point per call on scipy's."""
    if objective in _OBJECTIVES:
        fun = _OBJECTIVES[objective]
        values = _batched(fun)
    else:
        values = _q0_objective(int(objective[3:])).values
        fun = lambda x: float(values(x[None])[0])  # noqa: E731

    def recorded(x):
        scipy_points.append(np.asarray(x).tobytes())
        return fun(x)

    ours_points, scipy_points = [], []
    ours = _drive(values, x0, maxiter, ours_points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a start outside the box
        res = minimize(
            recorded,
            x0=x0,
            method="Nelder-Mead",
            bounds=list(zip(_LOWER, _UPPER)),
            options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": maxiter},
        )
    return ours, [p.tobytes() for p in ours_points], res, scipy_points


def _coordinate(lo, hi):
    # Inside and outside the box, zero (the zdelt step) and on the upper
    # bound (the step that leaves the box and is reflected back inside).
    return st.one_of(st.floats(lo - 1.0, hi + 1.0), st.just(0.0), st.just(hi), st.just(lo))


class TestNelderMead:
    @settings(max_examples=60, deadline=None)
    @given(
        objective=st.sampled_from(["q0_6", "q0_30", "staircase", "holed_staircase"]),
        x0=st.tuples(*(_coordinate(lo, hi) for lo, hi in zip(_LOWER, _UPPER))),
        maxiter=st.sampled_from([1, 2, 5, 2000]),
    )
    @example(objective="q0_6", x0=(3.0, 0.0, 0.0), maxiter=2000)
    @example(objective="q0_30", x0=(-4.0, 4.0, breeding._DP_PERIOD), maxiter=2000)
    @example(objective="staircase", x0=(2.0, -0.3, 2.0), maxiter=2000)  # ties that argsort reorders
    @example(objective="holed_staircase", x0=(-2.6, 2.5, -0.3), maxiter=2000)  # NaN outside contraction
    @example(objective="holed_staircase", x0=(1.0, 0.4, 0.5), maxiter=5)  # NaN vertex at maxiter
    @example(objective="holed_staircase", x0=(1.0, 1.3, -0.9), maxiter=2000)  # NaN in a collapsed simplex
    @example(objective="staircase", x0=(0.5, -0.0, 1.0), maxiter=2000)  # the clip sends -0.0 to 0.0
    def test_bitwise_scipy(self, objective, x0, maxiter):
        (value, x, converged), ours_points, res, scipy_points = _run_both(objective, np.array(x0), maxiter)
        assert ours_points == scipy_points
        assert np.float64(value).tobytes() == np.float64(res.fun).tobytes()
        assert x.tobytes() == res.x.tobytes()
        assert np.bool_(converged).tobytes() == np.bool_(res.success).tobytes()

    # The last start tells scipy's shrink sim[0] + sigma (sim[j] - sim[0])
    # from (1 - sigma) sim[0] + sigma sim[j] by one rounding.
    @pytest.mark.parametrize("x0", [(0.0, 0.0, 0.0), (2.5, 1.0, 0.5), (-4.0, 5.0, 0.0), (-2.7, 1.1, 0.2)])
    def test_shrink_step_bitwise(self, x0):
        (value, x, converged), ours_points, res, scipy_points = _run_both("staircase", np.array(x0), 2000)
        # Iterations without a shrink evaluate at most two points, so more
        # evaluations than that prove a shrink happened.
        assert res.nfev > 4 + 2 * (res.nit - 1)
        assert ours_points == scipy_points
        assert (np.float64(value).tobytes(), x.tobytes(), converged) == (
            np.float64(res.fun).tobytes(),
            res.x.tobytes(),
            bool(res.success),
        )

    @settings(max_examples=100, deadline=None)
    @given(
        objective=st.sampled_from(["bowl", "staircase", "holed_staircase"]),
        x0=st.tuples(*(_coordinate(lo, hi) for lo, hi in zip(_LOWER, _UPPER))),
        centre=st.tuples(*(st.floats(lo - 2.0, hi + 2.0) for lo, hi in zip(_LOWER, _UPPER))),
        maxiter=st.sampled_from([1, 5, 100]),
    )
    def test_every_evaluated_point_lies_in_the_box(self, objective, x0, centre, maxiter):
        # `_CandidateObjective` evaluates any r it is given; the search stays
        # in the box only because `_nelder_mead` clips each point it asks for.
        # A bowl centred outside the box drives the search into its faces.
        fun = _OBJECTIVES.get(objective) or (lambda x: float(np.sum((x - np.array(centre)) ** 2)))
        points = []
        _drive(_batched(fun), np.array(x0), maxiter, points)
        points = np.array(points)
        assert points.shape[0] >= 4
        assert np.all((_LOWER <= points) & (points <= _UPPER))

    @pytest.mark.parametrize("maxiter", [1, 3])
    def test_small_maxiter_not_converged(self, maxiter):
        (_, _, converged), _, res, _ = _run_both("q0_6", np.array([0.4, 0.3, 0.2]), maxiter)
        assert converged is False
        assert not res.success

    def test_no_convergence_raises(self, monkeypatch):
        def never_converges(x0, *args, **kwargs):
            (value,) = yield [x0]
            return value, np.array(x0), False

        monkeypatch.setattr(breeding, "_nelder_mead", never_converges)
        with pytest.raises(OptimizerFailure):
            breeding._gaussian_min(breeding.build_q0(6))


class TestGkpSqueezing:
    def test_ratio_one_is_zero_db(self, monkeypatch):
        vac = fock.vacuum(30)
        value = fock.expectation(np.asarray(breeding.build_q0(30)), vac)
        wit = breeding.GkpWitness(matrix=breeding.build_q0(30), gaussian_min=value)
        monkeypatch.setattr(breeding, "gkp_witness", {30: wit}.__getitem__)
        assert breeding.gkp_squeezing_db(vac) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_positive_db(self):
        wit = breeding.gkp_witness(60)
        vac_db = breeding.gkp_squeezing_db(fock.vacuum(60))
        want = 10 * math.log10(
            ((1 - math.exp(-math.pi / 4)) + (1 - math.exp(-math.pi))) / wit.gaussian_min
        )
        assert vac_db == pytest.approx(want, abs=1e-9)
        assert vac_db > 0.0

    def test_breeding_improves_grid_quality(self):
        # Two grid-aligned rounds push the GKP squeezing of the cat family
        # well below the input's (the intermediate round is misaligned and
        # transiently worse; only the final output is asserted here).
        for r in (1.0, 1.2, 1.5):
            cat = states.squeezed_cat(CatSpec(u=U_GRID, r=r, phi=0.0, dim=60), max_loss=0.01)
            run = breeding.breed_protocol(cat, 2)
            xi_in = breeding.gkp_squeezing_db(cat)
            xi_out = breeding.gkp_squeezing_db(run.final)
            assert xi_out < xi_in

    def test_report_fields(self):
        cat = states.squeezed_cat(CatSpec(u=U_GRID, r=1.2, phi=0.0, dim=60))
        report = breeding.breeding_report(breeding.breed_protocol(cat, 2))
        assert set(report) == {"input_gkp_db", "per_round_gkp_db", "success_norms", "gaussian_min_q0"}
        assert len(report["per_round_gkp_db"]) == 2
        assert len(report["success_norms"]) == 2
        assert report["per_round_gkp_db"][-1] < report["input_gkp_db"]
