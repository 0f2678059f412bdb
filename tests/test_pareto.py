import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqewit import breeding, fock, gates, pareto, witness
from sqewit.errors import ContractViolationError
from sqewit.pareto import NsgaConfig
from sqewit.witness import WitnessSpec

import oracles
import pins

SPEC6 = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=6, k=100)


def brute_force_rank1(objs):
    """Independent O(n²) non-domination oracle."""
    n = objs.shape[0]
    rank1 = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            if np.all(objs[j] <= objs[i]) and np.any(objs[j] < objs[i]):
                dominated = True
                break
        if not dominated:
            rank1.append(i)
    return sorted(rank1)


def reference_non_dominated_sort(objectives):
    """The O(n²) peeling sort by dominator counts: fronts of ascending indices, the oracle of ``pareto.non_dominated_sort``."""
    objs = np.asarray(objectives, dtype=float)
    n = objs.shape[0]
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    dominates = le & lt  # dominates[i, j]: i dominates j
    n_dominators = dominates.sum(axis=0)
    fronts = []
    assigned = np.zeros(n, dtype=bool)
    while not assigned.all():
        current = np.nonzero((n_dominators == 0) & ~assigned)[0]
        fronts.append(current)
        assigned[current] = True
        n_dominators = n_dominators - dominates[current].sum(axis=0)
    return fronts


def as_lists(fronts):
    return [f.tolist() for f in fronts]


def reference_crowding_distance(objectives, front):
    """One front at a time, one objective at a time: the oracle of ``pareto.crowding_distance``."""
    objs = np.asarray(objectives, dtype=float)[front]
    m = front.size
    dist = np.zeros(m)
    if m <= 2:
        return np.full(m, np.inf)
    for k in range(objs.shape[1]):
        order = np.argsort(objs[:, k], kind="stable")
        lo, hi = objs[order[0], k], objs[order[-1], k]
        span = hi - lo if lo < hi else 0.0
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if 0.0 < span < math.inf:
            dist[order[1:-1]] += (objs[order[2:], k] - objs[order[:-2], k]) / span
    return dist


def reference_select_next(genomes, objectives, target_size):
    """The full sort, per-front crowding and stable truncation: the oracle of ``pareto._select_next``."""
    kept, ranks, crowd = [], [], []
    room = target_size
    for r, front in enumerate(reference_non_dominated_sort(objectives)):
        if room == 0:
            break
        dist = reference_crowding_distance(objectives, front)
        if front.size > room:
            front = front[np.lexsort((front, -dist))[:room]]
            dist = reference_crowding_distance(objectives, front)
        kept.append(front)
        ranks.append(np.full(front.size, r))
        crowd.append(dist)
        room -= front.size
    idx = np.concatenate(kept)
    return genomes[idx], objectives[idx], np.concatenate(ranks), np.concatenate(crowd)


# Small integer grids force ties in one objective and exact duplicates;
# infinite entries stand in for invalid genomes and annihilated gates.
GRID_VALUE = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([math.inf, -math.inf]),
)


def objective_clouds(min_size=0, max_size=80):
    return st.lists(st.tuples(GRID_VALUE, GRID_VALUE), min_size=min_size, max_size=max_size).map(
        lambda rows: np.array(rows, dtype=float).reshape(len(rows), 2)
    )


def chain(n):
    """n points, each dominating the next: one point per front, the peel's worst case."""
    t = np.arange(n, dtype=float)
    return np.column_stack([t, t])


@st.composite
def selection_cases(draw):
    """(pool, survivors): an even pool mixing a cloud with copied rows, ``(inf, inf)`` rows and a shuffled chain."""
    rows = list(draw(objective_clouds(max_size=60)))
    if rows:
        rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))]
    rows += [np.array([math.inf, math.inf])] * draw(st.integers(0 if len(rows) >= 2 else 2, 8))
    rows += list(chain(draw(st.integers(0, 40))) - 2.0)
    pool = np.array(rows, dtype=float)[: len(rows) // 2 * 2]
    pool = pool[np.array(draw(st.permutations(range(pool.shape[0]))), dtype=int)]
    return pool, draw(st.integers(1, pool.shape[0]))


@st.composite
def grouped_clouds(draw):
    """(objectives, sizes): a cloud cut into consecutive groups of any sizes."""
    objs = draw(objective_clouds(min_size=1))
    n = objs.shape[0]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6))) if n > 1 else []
    return objs, np.diff([0, *cuts, n]).tolist()


def oracle_condition_p0(bra, joint):
    """One state's <p = 0| conditioning: normalized mode 2, None if annihilated."""
    out = bra @ joint.reshape(bra.size, bra.size)
    norm = np.linalg.norm(out)
    return None if norm < gates.ANNIHILATION_EPS else out / norm


def oracle_objectives(objective, amps):
    """The per-state objective chain that batched evaluation must reproduce bitwise."""
    z = float(np.real(np.vdot(amps, objective.w @ amps)))
    if isinstance(objective, pareto._FidelityObjectives):
        out = oracle_condition_p0(objective.bra, objective.coupler_cols @ amps)
        if out is None:
            return (z, math.inf)
        return (z, float(abs(np.vdot(objective.target, out)) ** 2))
    current = amps
    for _ in range(objective.rounds):
        current = oracle_condition_p0(objective.bra, objective.coupler @ np.multiply.outer(current, current).ravel())
        if current is None:
            return (z, math.inf)
    gkp = breeding.gkp_witness(current.size)
    value = float(np.real(np.vdot(current, gkp.matrix @ current)))
    return (z, -witness.ratio_db(value, gkp.gaussian_min))


def oracle_evaluate(genomes, objective):
    """Genome by genome: one np.linalg.norm, one division, one objective chain."""
    dim = genomes.shape[1] // 2
    amps = genomes[:, :dim] + 1j * genomes[:, dim:]
    out = np.empty((genomes.shape[0], 2), dtype=float)
    for i, row in enumerate(amps):
        norm = np.linalg.norm(row)
        out[i] = oracle_objectives(objective, row / norm) if norm > pareto.DECODE_EPS else (math.inf, math.inf)
    return out


@functools.cache
def objectives_for(problem, rounds, dim=6):
    return pareto._make_objectives(problem, WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=dim, k=100), rounds)


# Breeding rounds apply to gkp only; the fidelity objective ignores them.
PROBLEM_ROUNDS = [("fidelity", 2)] + [("gkp", rounds) for rounds in (0, 1, 2)]


@st.composite
def genome_batches(draw, genes=12):
    """1-64 genomes with copied rows, all-zero rows and rows scaled near DECODE_EPS."""
    n = draw(st.integers(1, 64))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (n, genes))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)):
        rows[dst] = rows[src]
    for row, scale in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([0.0, 1e-11, 1e-9, 1e-8])), max_size=6)
    ):
        rows[row] *= scale
    return rows


class TestDecode:
    """``_evaluate`` decodes each genome: N real parts, then N imaginary parts, normalized."""

    def test_basis_genome(self):
        genome = np.zeros((1, 12))
        genome[0, 0] = 1.0
        objective = objectives_for("fidelity", 2)
        want = objective.batch(fock.vacuum(6).amps[None, :])
        assert pareto._evaluate(genome, objective).tobytes() == want.tobytes()

    def test_uniform_genome(self):
        # All real or all imaginary, the same state up to a global phase.
        for problem in pareto.PROBLEMS:
            objective = objectives_for(problem, 2)
            want = objective.batch(np.full((1, 6), 1 / math.sqrt(6), dtype=complex))
            for genome in (np.r_[np.ones(6), np.zeros(6)], np.r_[np.zeros(6), np.ones(6)]):
                assert np.allclose(pareto._evaluate(genome[None, :], objective), want, rtol=1e-12, atol=0)

    def test_scale_invariance(self):
        genomes = np.random.default_rng(0).uniform(-1, 1, (8, 12))
        for problem in pareto.PROBLEMS:
            objective = objectives_for(problem, 2)
            a = pareto._evaluate(genomes, objective)
            b = pareto._evaluate(0.3 * genomes, objective)
            assert np.isfinite(a).all()
            assert np.allclose(a, b, rtol=1e-10, atol=0)

    def test_zero_genome_is_invalid_marker(self):
        genomes = np.zeros((3, 12))
        genomes[1] = 1e-11
        genomes[2] = 1e-8
        objs = pareto._evaluate(genomes, objectives_for("fidelity", 2))
        assert np.isinf(objs[:2]).all() and np.isfinite(objs[2]).all()


class TestNonDominatedSort:
    def test_chain_domination(self):
        objs = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 2.0]])
        fronts = pareto.non_dominated_sort(objs)
        assert [f.tolist() for f in fronts] == [[0], [1], [2]]

    def test_identical_points_single_front(self):
        objs = np.ones((6, 2))
        assert as_lists(pareto.non_dominated_sort(objs)) == [list(range(6))]

    def test_random_cloud_against_brute_force(self):
        rng = np.random.default_rng(5)
        objs = rng.random((100, 2))
        fronts = pareto.non_dominated_sort(objs)
        assert fronts[0].tolist() == brute_force_rank1(objs)
        assert as_lists(fronts) == as_lists(reference_non_dominated_sort(objs))

    @settings(max_examples=300, deadline=None)
    @given(objs=objective_clouds())
    @example(objs=np.empty((0, 2)))
    @example(objs=np.array([[1.0, 2.0]]))
    @example(objs=np.array([[math.inf, math.inf]] * 3 + [[0.0, math.inf], [math.inf, 0.0]]))
    @example(objs=np.full((7, 2), math.inf))  # one run of equal points: the peel must still advance
    @example(objs=chain(40)[::-1])
    @example(objs=np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
    def test_matches_quadratic_oracle(self, objs):
        # Same fronts, same order of indices inside each front.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = as_lists(pareto.non_dominated_sort(objs))
        assert got == as_lists(reference_non_dominated_sort(objs))

    @settings(max_examples=200, deadline=None)
    @given(objs=objective_clouds(min_size=1), data=st.data())
    def test_partial_peel_is_a_prefix_of_the_fronts(self, objs, data):
        # Selection peels only until the fronts hold `fill` points.
        fill = data.draw(st.integers(1, objs.shape[0]))
        want = as_lists(reference_non_dominated_sort(objs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = as_lists(pareto.non_dominated_sort(objs, fill))
        assert got == want[: len(got)]
        assert sum(map(len, got)) >= fill > sum(map(len, got[:-1]))

    @pytest.mark.parametrize("row", [[math.nan, 0.0], [0.0, math.nan], [math.nan, math.nan]])
    def test_nan_objective_rejected(self, row):
        objs = np.array([[0.0, 1.0], row, [1.0, 0.0]])
        with pytest.raises(ContractViolationError, match="NaN"):
            pareto.non_dominated_sort(objs)

    def test_rejects_other_objective_counts(self):
        with pytest.raises(ContractViolationError):
            pareto.non_dominated_sort(np.zeros((4, 3)))


class TestCrowdingDistance:
    def test_two_point_front(self):
        objs = np.array([[0.0, 1.0], [1.0, 0.0]])
        dist = pareto.crowding_distance(objs, [2])
        assert np.all(np.isinf(dist))

    def test_three_collinear_points(self):
        objs = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        dist = pareto.crowding_distance(objs, [3])
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert dist[1] == pytest.approx(2.0)

    def test_degenerate_objective_no_division_error(self):
        objs = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        dist = pareto.crowding_distance(objs, [3])
        assert dist[1] == pytest.approx(1.0)  # only the spread axis counts

    def test_single_point_front(self):
        dist = pareto.crowding_distance([[1.0, 2.0]], [1])
        assert np.isinf(dist[0])

    def test_empty_fronts_add_no_distances(self):
        # These raised a bare IndexError: an empty `sizes` list cast `first`
        # to float, and a zero size indexed past the end.
        objs = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        for points, sizes in (([], []), (np.zeros((0, 2)), [0]), (np.zeros((0, 2)), np.array([], dtype=int))):
            assert pareto.crowding_distance(points, sizes).shape == (0,)
        want = pareto.crowding_distance(objs, [3]).tobytes()
        assert pareto.crowding_distance(objs, [0, 3, 0]).tobytes() == want

    def test_infinite_objective_spreads_no_gap(self):
        # The infinite span once gave the middle point inf / inf = NaN, with an
        # "invalid value encountered in divide" warning; a NaN point is the
        # first that truncation drops and loses every tournament.
        objs = np.array([[0.0, math.inf], [1.0, 5.0], [2.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = pareto.crowding_distance(objs, [3])
        assert not np.isnan(dist).any()
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert dist[1] == 1.0  # only the finite axis counts

    def test_equal_infinite_ends_warn_nothing(self):
        # Both ends of each front are inf in the second objective: its span
        # is no gap to spread, not inf - inf, which warns.
        for objs in ([[0.0, math.inf], [1.0, math.inf], [2.0, math.inf]], [[math.inf, math.inf]] * 3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dist = pareto.crowding_distance(objs, [3])
            assert np.isinf(dist[0]) and np.isinf(dist[2])
            assert dist[1] == (1.0 if math.isfinite(objs[0][0]) else 0.0)

    @settings(max_examples=300, deadline=None)
    @given(case=grouped_clouds())
    @example(case=(np.array([[0.0, math.inf], [1.0, 5.0], [2.0, 3.0], [math.inf, math.inf]] * 2), [3, 1, 2, 2]))
    def test_one_pass_matches_per_front_oracle(self, case):
        # Several groups at once, fronts or not: ties, repeated values, zero
        # and infinite spans, groups of one and two.
        objs, sizes = case
        bounds = np.cumsum([0, *sizes])
        groups = [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        want = np.concatenate([reference_crowding_distance(objs, group) for group in groups])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pareto.crowding_distance(objs, sizes)
            singles = [pareto.crowding_distance(objs[group], [group.size]) for group in groups]
        assert got.tobytes() == want.tobytes()
        assert np.concatenate(singles).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(objs=objective_clouds(min_size=1))
    def test_no_nan_on_any_front(self, objs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for front in pareto.non_dominated_sort(objs):
                dist = pareto.crowding_distance(objs[front], [front.size])
                assert not np.isnan(dist).any()
                assert np.isinf(dist).sum() >= min(front.size, 2)


class TestTournament:
    @pytest.mark.parametrize("seed", [0, 1, 6500])
    def test_two_rounds_equal_the_drawn_until_full_oracle(self, seed):
        # The oracle draws pairings until `picks` winners are in; with picks
        # the (even) population that is two rounds, and the same RNG draws.
        for n in range(2, 201, 2):
            setup = np.random.default_rng([seed, n])
            ranks = setup.integers(0, 4, n)
            crowd = np.where(setup.random(n) < 0.2, np.inf, setup.random(n))
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = pareto._tournament(rng, ranks, crowd)
            want = oracles.tournament(oracle_rng, ranks, crowd, n)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestSelectNext:
    @settings(max_examples=300, deadline=None)
    @given(case=selection_cases())
    @example(case=(np.full((8, 2), math.inf), 4))
    @example(case=(chain(40)[::-1], 20))
    def test_matches_full_sort_oracle(self, case):
        pool, target = case
        genomes = np.arange(pool.shape[0], dtype=float)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pareto._select_next(genomes, pool, target)
        want = reference_select_next(genomes, pool, target)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())

    @settings(max_examples=200, deadline=None)
    @given(pool=objective_clouds(min_size=2, max_size=80).map(lambda o: o[: o.shape[0] // 2 * 2]))
    def test_carried_ranks_and_crowding_match_recomputation(self, pool):
        target = pool.shape[0] // 2
        genomes = np.arange(pool.shape[0], dtype=float)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept_genomes, kept_objs, ranks, crowd = pareto._select_next(genomes, pool, target)
            fresh_ranks, fresh_crowd = pareto._rank_and_crowd(kept_objs)
        assert kept_objs.shape == (target, 2)
        assert np.array_equal(pool[kept_genomes[:, 0].astype(int)], kept_objs)
        assert np.array_equal(ranks, fresh_ranks)
        # Bitwise, fronts with an infinite span included.
        assert crowd.tobytes() == fresh_crowd.tobytes()


class TestVariation:
    def test_bounds_respected_bulk(self):
        rng = np.random.default_rng(123)
        worst_low, worst_high = 0.0, 0.0
        for _ in range(40):  # 40 x 50 x 50 = 1e5 gene draws
            parents = rng.uniform(-1, 1, (50, 50))
            offspring = pareto.variation(parents, rng)
            worst_low = min(worst_low, offspring.min())
            worst_high = max(worst_high, offspring.max())
        assert worst_low >= -1.0 and worst_high <= 1.0

    def test_fixed_seed_identical_streams(self):
        parents = np.random.default_rng(2).uniform(-1, 1, (6, 8))
        a = pareto.variation(parents, np.random.default_rng(77))
        b = pareto.variation(parents, np.random.default_rng(77))
        assert np.array_equal(a, b)


class TestConfigValidation:
    def test_odd_population(self):
        with pytest.raises(ContractViolationError):
            NsgaConfig(seed=1, population=7)

    def test_negative_generations(self):
        with pytest.raises(ContractViolationError):
            NsgaConfig(seed=1, generations=-1)

    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**64])
    def test_seed_outside_generator_range(self, seed):
        # numpy's default_rng refuses negative seeds with a bare ValueError.
        with pytest.raises(ContractViolationError):
            NsgaConfig(seed=seed)
        NsgaConfig(seed=0)
        NsgaConfig(seed=2**64 - 1)

    @pytest.mark.parametrize("problem", pareto.PROBLEMS)
    def test_negative_breeding_rounds(self, problem):
        with pytest.raises(ContractViolationError):
            pareto.evolve(problem, SPEC6, NsgaConfig(seed=1, population=4, generations=0), breeding_rounds=-1)


class TestEvolve:
    def test_zero_generations_front_is_nondominated(self):
        cfg = NsgaConfig(seed=4, population=30, generations=0)
        res = pareto.evolve("fidelity", SPEC6, cfg)
        assert res.points
        objs = np.array([[p.objective_1, p.objective_2] for p in res.points])
        assert brute_force_rank1(objs) == list(range(objs.shape[0]))

    def test_bitwise_determinism(self):
        cfg = NsgaConfig(seed=11, population=40, generations=30)
        a = pareto.evolve("fidelity", SPEC6, cfg)
        b = pareto.evolve("fidelity", SPEC6, cfg)
        assert a.evaluations == b.evaluations == 40 * (30 + 1)
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert np.array_equal(pa.genome, pb.genome)
            assert pa.objective_1 == pb.objective_1
            assert pa.objective_2 == pb.objective_2

    def test_elitism_history_monotone(self):
        cfg = NsgaConfig(seed=6, population=40, generations=60)
        res = pareto.evolve("fidelity", SPEC6, cfg)
        assert np.all(np.diff(res.history[:, 0]) <= 1e-12)
        assert np.all(np.diff(res.history[:, 1]) <= 1e-12)

    def test_front_sorted_and_monotone(self):
        cfg = NsgaConfig(seed=2, population=60, generations=80)
        res = pareto.evolve("fidelity", SPEC6, cfg)
        z = [p.objective_1 for p in res.points]
        f = [p.metric_value for p in res.points]
        assert all(b >= a for a, b in zip(z, z[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(f, f[1:]))

    def test_invalid_genomes_get_worst_objectives(self):
        objective = pareto._FidelityObjectives(SPEC6)
        objs = pareto._evaluate(np.zeros((3, 12)), objective)
        assert np.all(np.isinf(objs))

    @pytest.mark.parametrize("problem", pareto.PROBLEMS)
    def test_evaluate_matches_decoded_states(self, problem):
        objective = pareto._make_objectives(problem, SPEC6, 2)
        genomes = np.random.default_rng(21).uniform(-1, 1, (40, 12))
        want = np.array([objective.batch(oracles.decode(g).amps[None, :])[0] for g in genomes])
        assert pareto._evaluate(genomes, objective).tobytes() == want.tobytes()

    @pytest.mark.parametrize("problem", pareto.PROBLEMS)
    def test_bitwise_pin(self, problem):
        # The pareto store (see tests/pins.py): float.hex of one problem's
        # history and front. Any change of arithmetic or of the NSGA-II
        # trajectory shows here.
        want, got = pins.load("pareto")[problem], pins.computed()["pareto"][problem]
        assert got == want, pins.report("pareto", {problem: want}, {problem: got})

    def test_every_generation_sorts_and_crowds_through_the_public_names(self, monkeypatch):
        # perfbench times sorting and crowding by wrapping these two module
        # attributes; a private route around them would hide selection.
        calls = {"non_dominated_sort": 0, "crowding_distance": 0}
        for name in calls:
            original = getattr(pareto, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(pareto, name, counted)
        pareto.evolve("fidelity", SPEC6, NsgaConfig(seed=1, population=10, generations=7))
        assert calls["non_dominated_sort"] == 1 + 7
        assert calls["crowding_distance"] >= 1 + 7

    def test_gkp_problem_runs(self):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=8, k=100)
        res = pareto.evolve("gkp", spec, NsgaConfig(seed=3, population=30, generations=20))
        assert res.points
        assert all(np.isfinite(p.metric_value) for p in res.points)
        assert res.metric_name == "gkp_db"

    def test_unknown_problem(self):
        with pytest.raises(ContractViolationError):
            pareto.evolve("nonsense", SPEC6, NsgaConfig(seed=1, population=10, generations=1))

    def test_feasibility_envelope_against_reference_states(self):
        cfg = NsgaConfig(seed=8, population=100, generations=150)
        res = pareto.evolve("fidelity", SPEC6, cfg)
        front = np.array([[p.objective_1, p.objective_2] for p in res.points])

        objective = pareto._FidelityObjectives(SPEC6)
        eig = fock.hermitian_eig(np.asarray(witness.build_witness(SPEC6)))
        challengers = [objective.batch(eig.vectors[:, 0][None, :])[0]]
        even = np.arange(0, 6, 2)
        block = np.asarray(witness.build_witness(SPEC6))[np.ix_(even, even)]
        sub = fock.hermitian_eig(block)
        amps = np.zeros(6, dtype=complex)
        amps[even] = sub.vectors[:, 0]
        challengers.append(objective.batch(fock.FockState(amps).amps[None, :])[0])
        from sqewit import states

        for r in (0.3, 0.6):
            cat = states.squeezed_cat(states.CatSpec(u=3.0, r=r, phi=0.0, dim=6), max_loss=1.0)
            challengers.append(objective.batch(cat.amps[None, :])[0])
        challengers.append(objective.batch(fock.vacuum(6).amps[None, :])[0])
        flagged = oracles.dominated_front_points(front, np.array(challengers))
        assert flagged.size == 0


class TestBatchedEvaluation:
    """``_evaluate`` scores a generation in one batched pass, bitwise the per-state chain."""

    @pytest.mark.parametrize(("problem", "rounds"), PROBLEM_ROUNDS)
    @settings(max_examples=40, deadline=None)
    @given(genomes=genome_batches())
    def test_matches_per_state_oracle(self, problem, rounds, genomes):
        objective = objectives_for(problem, rounds)
        assert pareto._evaluate(genomes, objective).tobytes() == oracle_evaluate(genomes, objective).tobytes()

    @pytest.mark.parametrize(("problem", "rounds"), PROBLEM_ROUNDS)
    @settings(max_examples=25, deadline=None)
    @given(genomes=genome_batches(), data=st.data())
    def test_rows_are_independent(self, problem, rounds, genomes, data):
        # 1 ulp between two copies of a genome would change their ranks:
        # equal points never dominate each other, unequal ones may.
        objective = objectives_for(problem, rounds)
        perm = np.array(data.draw(st.permutations(range(genomes.shape[0]))), dtype=int)
        objs = pareto._evaluate(genomes, objective)
        assert pareto._evaluate(genomes[perm], objective).tobytes() == objs[perm].tobytes()
        copies = np.vstack([genomes, genomes[::-1]])
        assert pareto._evaluate(copies, objective).tobytes() == np.vstack([objs, objs[::-1]]).tobytes()

    @pytest.mark.parametrize(("problem", "rounds"), PROBLEM_ROUNDS)
    def test_annihilated_rows_score_inf_without_warnings(self, problem, rounds):
        objective = pareto._make_objectives(problem, SPEC6, rounds)
        objective.bra = np.zeros_like(objective.bra)
        genomes = np.random.default_rng(3).uniform(-1, 1, (16, 12))
        genomes[5] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            objs = pareto._evaluate(genomes, objective)
        want = oracle_evaluate(genomes, objective)
        assert objs.tobytes() == want.tobytes()
        if problem == "fidelity" or rounds > 0:
            assert np.all(np.isinf(objs[:, 1]))
        assert np.isinf(objs[5, 0]) and np.isfinite(np.delete(objs[:, 0], 5)).all()

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_row_dead_after_first_round_stays_inf(self, rounds):
        # At N = 2 the s = 2 sector keeps |1,1> alone and <p=0|1> = 0, so |1>
        # dies in round 1 while the other rows breed on.
        objective = objectives_for("gkp", rounds, dim=2)
        genomes = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.3, 0.2, 0.1, -0.5], [0.0, -1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            objs = pareto._evaluate(genomes, objective)
        assert objs.tobytes() == oracle_evaluate(genomes, objective).tobytes()
        assert np.isinf(objs[[0, 3], 1]).all() and np.isfinite(objs[[1, 2], 1]).all()
        # The row `breeding.breed_protocol` refuses scores inf in the batch itself.
        assert objective.batch(np.array([fock.basis_state(2, 1).amps, fock.vacuum(2).amps]))[0, 1] == math.inf


class TestHypervolume:
    def test_single_point(self):
        assert pareto.hypervolume(np.array([[0.0, 0.0]]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_staircase(self):
        objs = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert pareto.hypervolume(objs, np.array([1.0, 1.0])) == pytest.approx(0.75)

    def test_point_outside_reference(self):
        assert pareto.hypervolume(np.array([[2.0, 2.0]]), np.array([1.0, 1.0])) == 0.0

    @pytest.mark.parametrize("empty", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_empty_front(self, empty):
        assert pareto.hypervolume(empty, np.array([1.0, 1.0])) == 0.0

    def test_dominated_points_do_not_add(self):
        base = np.array([[0.0, 0.0]])
        more = np.array([[0.0, 0.0], [0.5, 0.5]])
        ref = np.array([1.0, 1.0])
        assert pareto.hypervolume(base, ref) == pareto.hypervolume(more, ref)


class TestDominatedFrontPoints:
    def test_detects_domination(self):
        front = np.array([[1.0, 1.0], [2.0, 0.5]])
        challengers = np.array([[0.5, 0.9]])
        assert oracles.dominated_front_points(front, challengers).tolist() == [0]

    def test_clean_front(self):
        front = np.array([[1.0, 1.0], [2.0, 0.5]])
        challengers = np.array([[1.5, 0.9], [3.0, 0.1]])
        assert oracles.dominated_front_points(front, challengers).size == 0
