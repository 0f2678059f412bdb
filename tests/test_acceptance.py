"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see every line, or check
the captured output of failing criteria. Every check runs at its stated
tolerance and compares like with like: finite-k witness values with
references that carry the same sin^2k comb, and gate fidelities at the
dimension the truncation guard accepts (N = 215 for ACCEPT-04's u = 3 cats,
the first crop that keeps 1 - 1e-4 of their exact norm). One clause fails on
a known program fault: ACCEPT-04's F_QND = F_BS equality, which the unpadded
QND branch of `fock._p0_output`, the p = 0 conditioning behind
`gates.couple_and_condition`, misses by 2.7e-4 on the 60-level r = 2 cat; it
waits on the exact QND kernel (ROADMAP item 3).
"""

import math
import time

import numpy as np
from scipy.special import polygamma

from sqewit import breeding, fock, gates, pareto, states, witness
from sqewit.errors import TruncationLossError
from sqewit.states import CatSpec
from sqewit.witness import WitnessSpec

import oracles


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPT-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line)
    return line


def test_criterion_01_gaussian_bound_oracle():
    started = time.time()
    b0 = witness.gaussian_bound(3.0, 0.0, 100)
    b10 = witness.gaussian_bound(3.0, 10.0, 100)
    elapsed = time.time() - started
    ok = (
        abs(b0.value - 54.0) <= 1e-6
        and b10.branch == "infinitely-squeezed"
        and abs(b10.value - 30.0 / math.pi) <= 1e-9
        and elapsed < 1.0
    )
    line = _report(
        1,
        ok,
        f"gaussian bound: c=0 -> {b0.value:.9f} (want 54), "
        f"c=10 -> {b10.value:.6f} ({b10.branch}), {elapsed:.2f}s",
    )
    assert ok, line


def _ridge_prefactor(u: float, k: int) -> float:
    """(u/sqrt(pi)) Gamma(k+1)/Gamma(k+1/2): each sin^2k ridge has unit weight."""
    return u / math.sqrt(math.pi) * math.exp(math.lgamma(k + 1) - math.lgamma(k + 0.5))


def _even_cat_comb_expectation(u: float, r: float, k: int) -> float:
    """<comb_k> on the ideal even squeezed cat, from the sin^2k Fourier series.

    sin^2k(u p) = sum_m c_m e^{2imup} with c_m = (-1)^m C(2k, k+m) / 4^k; on
    the cat, |psi(p)|² ∝ cos²(up) times a Gaussian of momentum variance
    e^{2r}/2, so each harmonic is a sum of characteristic-function values
    chi_j = exp(-(ju)² e^{2r} / 4). Kept independent of `witness`.
    """

    def chi(j: int) -> float:
        return math.exp(-((j * u) ** 2) * math.exp(2.0 * r) / 4.0)

    log_norm = math.lgamma(2 * k + 1) - 2 * k * math.log(2.0)
    terms = [
        (-1.0) ** m
        * math.exp(log_norm - math.lgamma(k + m + 1) - math.lgamma(k - m + 1))
        * (2.0 * chi(2 * m) + chi(2 * m + 2) + chi(2 * m - 2))
        for m in range(-k, k + 1)
    ]
    return _ridge_prefactor(u, k) * math.fsum(terms) / (2.0 * (1.0 + chi(2)))


def test_criterion_02_closed_form_agreement():
    # The closed form is the k -> infinity value, where the projector comb
    # vanishes on even cats; at k = 100 the sin^2k comb adds c * <comb_k>
    # (0.060..0.063 here), which the comparator carries in closed form too.
    started = time.time()
    u, c, k = 2.0, 10.0, 100
    spec = WitnessSpec(u=u, phi=0.0, c=c, dim=60, k=k)
    w = np.asarray(witness.build_witness(spec))
    rows = []
    for r in (0.0, 0.4, 0.8, 1.2):
        cat = states.squeezed_cat(CatSpec(u=u, r=r, phi=0.0, dim=60))
        got = fock.expectation(w, cat)
        want = oracles.even_cat_expectation_closed_form(u, r) + c * _even_cat_comb_expectation(u, r, k)
        rows.append((r, got, want, abs(1 - got / want)))
    elapsed = time.time() - started
    decreasing = all(b[1] < a[1] for a, b in zip(rows, rows[1:]))
    within = all(rel <= 0.02 for _, _, _, rel in rows)
    ok = within and decreasing and elapsed < 30.0
    detail = "; ".join(f"r={r}: {got:.4f} vs {want:.4f} ({rel:.1e})" for r, got, want, rel in rows)
    line = _report(
        2,
        ok,
        f"closed-form match incl. c*<comb_k> (2% budget): {detail}; decreasing={decreasing}; {elapsed:.1f}s",
    )
    assert ok, line


def _hermite_with_derivatives(n_max: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_n, phi_n' and phi_n'' for n <= n_max from the Hermite recurrences.

    phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1} and
    phi_n'' = (t² - 2n - 1) phi_n.
    """
    phi = fock.hermite_functions(n_max + 1, t)
    n = np.arange(n_max + 1)[:, None]
    lower = np.vstack([np.zeros_like(t), phi[:n_max]])
    d1 = np.sqrt(n / 2.0) * lower - np.sqrt((n + 1) / 2.0) * phi[1:]
    d2 = (t * t - 2.0 * n - 1.0) * phi[: n_max + 1]
    return phi[: n_max + 1], d1, d2


def test_criterion_03_comb_accuracy():
    # At k = 100 the sin^2k comb differs from the projector comb by the
    # width of its ridges; the test checks that (a) the program's diagonal is
    # the exact diagonal of the sin^2k comb and (b) the ridge width accounts
    # for the deviation to within 1% of the exact comb sum at every level.
    started = time.time()
    u, k, n_max = 3.0, 100, 30
    rows = witness.accuracy_scan(u, k, n_max)
    approx = np.array([row.approx for row in rows])
    exact = np.array([row.exact for row in rows])

    # (a) Trapezoid quadrature of the sin^2k ridge against phi_n(p)², one
    # comb period per peak p_j, with the ridge written about its own peak so
    # the 2k-th power does not amplify the rounding of sin(u p).
    period = math.pi / u
    samples = 256
    delta = (np.arange(samples) - samples // 2) * (period / samples)
    ridge = _ridge_prefactor(u, k) * np.cos(u * delta) ** (2 * k)
    j_cut = int(math.ceil(20.0 / period)) + 1
    peaks = (2 * np.arange(1 - j_cut, j_cut + 1) - 1) * math.pi / (2.0 * u)
    phi = fock.hermite_functions(n_max, (peaks[:, None] + delta[None, :]).ravel())
    quadrature = (period / samples) * (phi * phi) @ np.tile(ridge, peaks.size)
    quad_gap = float(np.max(np.abs(quadrature - approx)))

    # (b) Leading ridge-width term (sigma²/2) sum_j (phi_n²)''(p_j), with
    # sigma² = psi'(k+1) / (2u²) the variance of one normalized ridge.
    sigma2 = float(polygamma(1, k + 1)) / (2.0 * u * u)
    f, d1, d2 = _hermite_with_derivatives(n_max, peaks)
    leading = 0.5 * sigma2 * np.sum(2.0 * (d1 * d1 + f * d2), axis=1)
    residual = np.abs(approx - exact - leading) / exact

    elapsed = time.time() - started
    bad = [(n, float(e)) for n, e in enumerate(residual) if e > 0.01]
    ok = quad_gap <= 1e-12 and not bad and elapsed < 60.0
    line = _report(
        3,
        ok,
        f"comb u=3, k=100, n<=30: sin^2k quadrature vs diagonal {quad_gap:.1e} (<=1e-12); "
        f"raw error vs projector comb max {100 * max(row.rel_error for row in rows):.2f}%, after the ridge-width "
        f"term max {100 * residual.max():.3f}% (<=1%), levels over: {bad}; {elapsed:.1f}s",
    )
    assert ok, line


def _guard_accepted_dim(u: float, grid: tuple[float, ...], dim: int) -> int:
    """Smallest dimension reached by following TruncationLossError.required_dim
    until every squeezed cat of the grid passes the default loss guard."""
    while True:
        required = []
        for r in grid:
            try:
                states.squeezed_cat(CatSpec(u=u, r=r, phi=0.0, dim=dim))
            except TruncationLossError as err:
                required.append(err.required_dim)
        if not required:
            return dim
        dim = max(required)


def test_criterion_04_gate_limit_fidelity():
    started = time.time()
    grid = (0.0, 0.5, 1.0, 1.5, 2.0)
    # F_BS is judged at the dimension the default truncation guard accepts
    # for every grid cat; at N = 60 the r = 1.5 and r = 2 cats are cropped.
    # The guard measures the crop loss against the exact norm of the cat, so
    # the chain of required dimensions runs 60 -> 90 -> 135 -> 202 -> 215.
    dim = _guard_accepted_dim(3.0, grid, 60)
    f_bs = [
        gates.gate_report(states.squeezed_cat(CatSpec(u=3.0, r=r, phi=0.0, dim=dim)), "BS", 3.0, 0.0)["fidelity"]
        for r in grid
    ]
    # F_QND = F_BS holds for every input state, so the 60-level crops are
    # valid inputs for the equality clause, and at N = 60 they fill the space.
    gaps = []
    for r in grid:
        cat = states.squeezed_cat(CatSpec(u=3.0, r=r, phi=0.0, dim=60), max_loss=0.05)
        f_bs_60, f_qnd_60 = (gates.gate_report(cat, kind, 3.0, 0.0)["fidelity"] for kind in ("BS", "QND"))
        gaps.append(abs(f_bs_60 - f_qnd_60))
    elapsed = time.time() - started
    high_r = f_bs[-1] >= 0.99
    nondecreasing = all(b >= a for a, b in zip(f_bs, f_bs[1:]))
    max_gap = max(gaps)
    equality = max_gap <= 1e-4
    ok = high_r and nondecreasing and equality and elapsed < 300.0
    line = _report(
        4,
        ok,
        f"gate fidelities at guard-accepted N={dim}: F_BS={['%.6f' % f for f in f_bs]}, "
        f"F>=0.99 at r=2: {high_r}, nondecreasing: {nondecreasing}; at N=60 "
        f"max |F_QND-F_BS|={max_gap:.2e} (<=1e-4: {equality}); {elapsed:.0f}s",
    )
    assert ok, (
        line
        + " | the equality clause fails on the QND route: fock._p0_output('QND', ...),"
        " behind gates.couple_and_condition, exponentiates x1*p2 in the"
        " unpadded N-level x and p eigenbases and"
        " normalizes without the output above level N-1; the exact channel"
        " out(x2) = (2pi)^(-1/2) int psi(x1) phi0(x2 - x1) dx1 gives"
        " F_QND = 0.999535182 = F_BS on the 60-level r=2 input, the route 0.999804"
        " (ROADMAP item 3: exact QND kernel)"
    )


def test_criterion_05_witness_fires():
    # The comb is PSD, so W >= (x²-9)² and no N-level state goes below the
    # smallest eigenvalue of that block (its position floor): where the floor
    # sits at or above the Gaussian bound the witness cannot fire.
    started = time.time()
    bound = witness.gaussian_bound(3.0, 10.0, 100)
    rows = []
    for dim in range(4, 17):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=dim, k=100)
        floor = float(np.linalg.eigvalsh(witness.position_quartic(3.0, dim))[0])
        rows.append((dim, floor, states.optimal_sqe_approximation(spec).xi_db))
    elapsed = time.time() - started
    fires = all(x < 0 for _, floor, x in rows if floor < bound.value)
    ruled_out = all(x > 0 for _, floor, x in rows if floor >= bound.value)
    nonincreasing = all(b[2] <= a[2] + 1e-9 for a, b in zip(rows, rows[1:]))
    ok = fires and ruled_out and nonincreasing and elapsed < 120.0
    detail = ", ".join(f"N={d}: {x:+.2f} (floor {floor:.2f})" for d, floor, x in rows)
    line = _report(
        5,
        ok,
        f"ground-state squeezing (dB) vs bound {bound.value:.3f}: {detail}; fires where the "
        f"floor allows: {fires}, positive where it does not: {ruled_out}, "
        f"nonincreasing: {nonincreasing}; {elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_06_parity_and_stellar_structure():
    leaks, stellar_ok = [], True
    for dim in range(4, 13):
        spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=dim, k=100)
        report = states.optimal_sqe_approximation(spec)
        leaks.append(np.max(np.abs(report.state.amps[1::2])))
        expected = dim - 2 if dim % 2 == 0 else dim - 1
        stellar_ok = stellar_ok and report.stellar_rank_bound == expected
    n4 = states.optimal_sqe_approximation(WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=4, k=100))
    n5 = states.optimal_sqe_approximation(WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=5, k=100))
    ok = max(leaks) <= 1e-8 and stellar_ok and n4.stellar_rank_bound == 2 and n5.stellar_rank_bound == 4
    line = _report(
        6,
        ok,
        f"parity leakage max {max(leaks):.1e} (<=1e-8), stellar bounds exact "
        f"(N=4 -> {n4.stellar_rank_bound}, N=5 -> {n5.stellar_rank_bound})",
    )
    assert ok, line


def test_criterion_07_wigner_sanity():
    started = time.time()
    spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=8, k=100)
    state = states.optimal_sqe_approximation(spec).state
    step = 0.05
    grid = np.arange(-6.0, 6.0 + step / 2, step)
    w = fock.wigner(state, grid, grid)
    total = float(np.sum(w)) * step * step
    minimum = float(w.min())
    elapsed = time.time() - started
    ok = abs(total - 1.0) <= 1e-3 and minimum <= -0.01 and elapsed < 30.0
    line = _report(
        7,
        ok,
        f"N=8 ground-state Wigner: integral {total:.6f} (1±1e-3), min {minimum:.4f} (<=-0.01); {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_08_breeding_direction():
    started = time.time()
    cat = states.squeezed_cat(CatSpec(u=2 * math.sqrt(math.pi), r=1.2, phi=0.0, dim=60))
    xi_in = breeding.gkp_squeezing_db(cat)
    run = breeding.breed_protocol(cat, 2)
    xi_out = breeding.gkp_squeezing_db(run.final)
    leak = max(np.max(np.abs(out.amps[1::2])) for out in run.outputs_per_round)
    elapsed = time.time() - started
    ok = xi_out < xi_in and leak <= 1e-8 and elapsed < 300.0
    line = _report(
        8,
        ok,
        f"breeding at N=60: gkp dB {xi_in:+.3f} -> {xi_out:+.3f} (strict decrease), "
        f"odd leakage {leak:.1e}; {elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_09_nsga_correctness():
    started = time.time()
    spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=6, k=100)

    res1 = pareto.evolve("fidelity", spec, pareto.NsgaConfig(seed=1))
    res1_again = pareto.evolve("fidelity", spec, pareto.NsgaConfig(seed=1))
    res2 = pareto.evolve("fidelity", spec, pareto.NsgaConfig(seed=2))

    bitwise = len(res1.points) == len(res1_again.points) and all(
        np.array_equal(p.genome, q.genome) and p.objective_1 == q.objective_1
        for p, q in zip(res1.points, res1_again.points)
    )

    def brute_nondominated(objs):
        for i in range(objs.shape[0]):
            for j in range(objs.shape[0]):
                if i != j and np.all(objs[j] <= objs[i]) and np.any(objs[j] < objs[i]):
                    return False
        return True

    o1 = np.array([[p.objective_1, p.objective_2] for p in res1.points])
    o2 = np.array([[p.objective_1, p.objective_2] for p in res2.points])
    brute_ok = brute_nondominated(o1) and brute_nondominated(o2)

    ref = np.vstack([o1, o2]).max(axis=0)
    h1, h2 = pareto.hypervolume(o1, ref), pareto.hypervolume(o2, ref)
    hv_agreement = abs(h1 - h2) / max(h1, h2)

    objective = pareto._FidelityObjectives(spec)
    eig = fock.hermitian_eig(np.asarray(witness.build_witness(spec)))
    _, f_gs = objective.batch(eig.vectors[:, 0][None, :])[0]
    endpoint_gap = abs(res1.points[0].metric_value - f_gs)

    fvals = [p.metric_value for p in res1.points]
    monotone = all(b <= a + 1e-12 for a, b in zip(fvals, fvals[1:]))

    elapsed = time.time() - started
    ok = (
        bitwise
        and brute_ok
        and hv_agreement <= 0.05
        and endpoint_gap <= 0.01
        and monotone
        and elapsed < 1800.0
    )
    line = _report(
        9,
        ok,
        f"NSGA-II at N=6 pop 200 gens 500: bitwise repro {bitwise}, brute-force "
        f"non-domination {brute_ok}, hypervolume agreement {100 * hv_agreement:.2f}% (<=5%), "
        f"endpoint F gap {endpoint_gap:.4f} (<=0.01 vs ground-state F {f_gs:.4f}), "
        f"front monotone {monotone}; {elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_10_grid_witness_vacuum_oracle():
    q0 = np.asarray(breeding.build_q0(60))
    value = fock.expectation(q0, fock.vacuum(60))
    want = (1 - math.exp(-math.pi / 4)) + (1 - math.exp(-math.pi))
    gmin = breeding.gkp_witness(80).gaussian_min
    ok = abs(value - want) <= 1e-4 and gmin <= value
    line = _report(
        10,
        ok,
        f"grid witness: vacuum {value:.6f} vs characteristic-function {want:.6f}, "
        f"gaussian min {gmin:.6f} <= vacuum",
    )
    assert ok, line
