"""The padding-free API: no padding knobs, no knobs without callers, one file
boundary with one file write, and one refusal of bad numeric arguments.

The bitwise values of the Gaussian constructions and the momentum comb are
the `construction` store of `tests/pins.py`.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqewit
from sqewit import breeding, cli, fock, gates, pareto, serialize, states, witness
from sqewit.errors import ContractViolationError, ProjectionAnnihilatedError


def test_no_public_padding_knobs():
    for module in (fock, witness, states, gates, breeding, pareto, serialize, cli):
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            assert "pad" not in inspect.signature(obj).parameters, f"{module.__name__}.{name}"
    assert "max_loss" not in inspect.signature(states.ideal_gate_target).parameters
    assert "phi" not in inspect.signature(witness.gaussian_bound).parameters
    for module, name in (
        (fock, "default_pad"),
        (fock, "displacement_p"),
        (fock, "phase_rotation"),
        (breeding, "Q0_PAD_DEFAULT"),
        (breeding, "GKP_BENCHMARK_DIM"),
        (breeding, "EXPECTATION_FLOOR"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_no_knobs_without_callers():
    # Parameters no caller ever set are module constants, and functions no
    # caller used are gone.
    for func in (fock.is_hermitian, fock.hermitian_eig, fock.matrix_function):
        assert "tol" not in inspect.signature(func).parameters, func.__name__
    assert "rel_cut" not in inspect.signature(witness._sin_power_harmonics).parameters
    assert "phi" not in inspect.signature(witness.accuracy_scan).parameters
    assert list(pareto.NsgaConfig.__dataclass_fields__) == ["seed", "population", "generations"]
    assert (pareto.CROSSOVER_PROB, pareto.CROSSOVER_ETA, pareto.MUTATION_ETA) == (0.9, 15.0, 20.0)
    assert "cfg" not in inspect.signature(pareto.variation).parameters
    assert "sector" not in inspect.signature(states.optimal_sqe_approximation).parameters
    assert "j_cut" not in inspect.signature(witness.comb_diagonal_exact).parameters
    # Every caller took the exact comb at phi = 0, and every tournament
    # picked as many parents as the population.
    assert "phi" not in inspect.signature(witness.comb_diagonal_exact).parameters
    assert "picks" not in inspect.signature(pareto._tournament).parameters
    # GKP squeezing finds its own witness, `breeding.gkp_witness(state.dim)`.
    assert "witness" not in inspect.signature(breeding.gkp_squeezing_db).parameters
    # The Gaussian benchmark prices the witness's own comb, and each default
    # is declared once (k on `WitnessSpec`, the rounds on `evolve`).
    for func, param in (
        (witness.gaussian_bound, "k"),
        (witness.squeezed_vacuum_expectation, "k"),
        (states.ground_state_sweep, "k"),
        (pareto._GkpObjectives, "rounds"),
    ):
        assert inspect.signature(func).parameters[param].default is inspect.Parameter.empty, func.__name__
    for module, name in (
        (fock, "creation"),
        (fock, "momentum_wavefunction"),
        (fock, "momentum_wavefunction_coeffs"),
        (fock, "number_operator"),
        (fock, "_qnd_factors"),
        (fock, "bs_p0_kernel"),
        (fock, "qnd_p0_factor"),
        (fock.FockState, "padded"),
        (witness.GaussianBound, "as_dict"),
        (witness, "theta3_half_pi"),
        (witness, "_auto_j_cut"),
        (witness, "_displacement_negligible"),
        (witness, "comb_points"),
        (breeding._CandidateObjective, "displaced_in_p"),
        (breeding._CandidateObjective, "value"),
        (breeding._CandidateObjective, "squeezed_in_x"),
        (states, "stellar_rank_bound"),
        # A ground report's squeezing comes from its own eigenvalue, and no
        # output read its degeneracy flag.
        (witness, "sqe_squeezing_db"),
        (states, "DEGENERACY_GAP"),
        (gates, "interaction_fidelity"),
        (pareto, "worst_corner"),
        (cli, "_apply_config"),
        (cli, "_echo_or_write"),
        (cli, "_exit_code_for"),
        (cli, "_INPUT_ERRORS"),
        (cli, "_CONTRACT_ERRORS"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "degenerate" not in states.GroundStateReport.__dataclass_fields__
    # The Gaussian candidates are scored through the start grid or a batch of
    # points, never one point per call (a class is always callable, so the
    # class's own namespace is what is checked).
    assert "__call__" not in vars(breeding._CandidateObjective)
    # Frontier points carry no per-point constants: the rank of every
    # reported point is 0 and the metric is named once, on the result.
    assert {"rank", "metric_name"}.isdisjoint(pareto.ParetoPoint.__dataclass_fields__)
    assert "metric_name" in pareto.EvolveResult.__dataclass_fields__


def _owned_nodes(path):
    """(enclosing function, node) for every node of a source file."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            found.append((owner, child))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(Path(path).read_text()), None)
    return found


def _called_name(call):
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def test_only_serialize_touches_files():
    # One boundary maps read and write failures to InputFormatError (exit 2),
    # and one writer, `serialize._write`, opens every file that is written,
    # so that every write deletes its partial file when it fails.
    file_calls = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir"}
    calls = [
        (path.stem, owner, _called_name(node))
        for path in sorted(Path(sqewit.__file__).parent.glob("*.py"))
        for owner, node in _owned_nodes(path)
        if isinstance(node, ast.Call) and _called_name(node) in file_calls
    ]
    assert {module for module, _, _ in calls} == {"serialize"}, calls
    assert [call for call in calls if call[2] == "open"] == [("serialize", "_write", "open")], calls
    assert not [call for call in calls if call[2] in ("write_text", "write_bytes")], calls


def test_gates_reads_no_coupler_layout():
    # The p = 0 conditioning is one `fock` function, `_p0_output`: the gate
    # hands it two amplitude vectors and reads none of the arrays it
    # contracts (spectra, p eigenvectors, kernels, factors), so a change to
    # their layout cannot silently break the gate.
    tree = ast.parse(Path(gates.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    layout = {"generator_spectrum", "vectors", "momentum_eigenbra", "two_mode_coupler", "coupler_generator", "kron", "reshape"}
    assert {name for name in names if name in layout or "kernel" in name or "factor" in name} == set()
    assert "_p0_output" in names


def test_each_figure_has_one_builder():
    # The frontier scores ⟨W⟩, the gate fidelity and the GKP dB with the
    # records' own builders, so it computes no dB, overlap or modulus itself;
    # its one `ratio_db` is each front point's ξ, through the witness's own
    # dB builder.
    calls = [
        (owner, _called_name(node), node.func)
        for owner, node in _owned_nodes(pareto.__file__)
        if isinstance(node, ast.Call)
    ]
    inline = [
        (owner, name) for owner, name, func in calls
        if name in ("ratio_db", "vdot") or (name == "abs" and isinstance(func, ast.Name))
    ]
    assert inline == [("evolve", "ratio_db")]
    assert {"_quadratic_forms", "_fidelities", "_gkp_db"} <= {name for _, name, _ in calls}

    # `matrix_function` is fock's one V f(L) V† product, (V * f) @ V.conj().T.
    def conj_transpose(node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "T"
            and isinstance(node.value, ast.Call) and getattr(node.value.func, "attr", None) == "conj"
        )

    products = [
        owner for owner, node in _owned_nodes(fock.__file__)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult) and conj_transpose(node.right)
    ]
    assert products == ["matrix_function"]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 64), dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), with_target=st.booleans())
def test_batch_builders_are_their_one_row_calls(n, dim, seed, with_target):
    # Every row of a batch builder is bitwise its public one-state call, so
    # the frontier's batches and the records agree in any batch; a row equal
    # to the target exercises the fidelity's clamp at 1.
    rng = np.random.default_rng(seed)
    states_ = [fock.FockState(rng.normal(size=dim) + 1j * rng.normal(size=dim)) for _ in range(n + 1)]
    target, states_ = states_[0], states_[1:]
    if with_target:
        states_[0] = target
    rows = np.array([state.amps for state in states_])
    assert rows.flags.c_contiguous
    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op = op + op.conj().T
    assert fock._quadratic_forms(op, rows).tolist() == [fock.expectation(op, state) for state in states_]
    fidelities = fock._fidelities(target.amps, rows)
    assert fidelities == [fock.overlap_fidelity(target, state) for state in states_]
    assert fidelities == [fock.overlap_fidelity(state, target) for state in states_]
    assert breeding._gkp_db(rows) == [breeding.gkp_squeezing_db(state) for state in states_]


def test_one_owner_per_conditioning_step():
    # The frontier keeps only its dense coupler product. The records and the
    # frontier post-select through `gates._post_select`, the package's one
    # comparison with ANNIHILATION_EPS, and breed through
    # `breeding._breed_rows`, the one place that pairs a state with itself:
    # a product of two slices of one array, or a two-mode call given one
    # name twice (kron(a, a), couple_and_condition(a, a, kind)).
    owned = {path.stem: _owned_nodes(path) for path in sorted(Path(sqewit.__file__).parent.glob("*.py"))}

    def names(node):
        nodes = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
        return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}

    def self_pair(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = [side.value for side in (node.left, node.right) if isinstance(side, ast.Subscript)]
            return len(sides) == 2 and all(isinstance(side, ast.Name) for side in sides) and sides[0].id == sides[1].id
        two_mode = {"kron", "couple_and_condition", "_p0_output", "_bs_p0_outputs", "breed_round"}
        if isinstance(node, ast.Call) and _called_name(node) in two_mode:
            args = [arg.id for arg in node.args if isinstance(arg, ast.Name)]
            return len(args) != len(set(args))
        return False

    assert not hasattr(pareto, "_condition_p0")
    assert "ANNIHILATION_EPS" not in set().union(*(names(node) for _, node in owned["pareto"]))
    calls = [(owner, _called_name(node)) for owner, node in owned["pareto"] if isinstance(node, ast.Call)]
    assert [owner for owner, name in calls if name == "_row_norms"] == ["_evaluate"]
    compared = [
        (stem, owner) for stem, nodes in owned.items() for owner, node in nodes
        if isinstance(node, ast.Compare) and "ANNIHILATION_EPS" in names(node)
    ]
    assert compared == [("gates", "_post_select")]
    pairs = [(stem, owner) for stem, nodes in owned.items() for owner, node in nodes if self_pair(node)]
    assert pairs == [("breeding", "_breed_rows")]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 16), dim=st.integers(2, 40), rounds=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1), dead=st.booleans(),
)
@example(n=3, dim=2, rounds=2, seed=0, dead=True)
def test_breed_rows_are_breed_protocol_per_row(n, dim, rounds, seed, dead):
    # `breed_protocol` is `_breed_rows` of one row with the kernel product, so
    # in any batch each row that survives every round gets its outputs and
    # success norms bitwise, and a row it refuses drops out: |1> in two
    # levels is annihilated in round 1.
    rng = np.random.default_rng(seed)
    states_ = [fock.FockState(rng.normal(size=dim) + 1j * rng.normal(size=dim)) for _ in range(n)]
    if dead and dim == 2:
        states_[0] = fock.basis_state(2, 1)
    alive, bred, log = breeding._breed_rows(np.array([state.amps for state in states_]), rounds, fock._bs_p0_outputs)
    bred_in = [np.arange(n)]  # the rows each round breeds
    for _, _, kept in log:
        bred_in.append(bred_in[-1][kept])
    survivors, finals = [], []
    for i, state in enumerate(states_):
        try:
            run = breeding.breed_protocol(state, rounds)
        except ProjectionAnnihilatedError:
            continue
        survivors.append(i)
        finals.append(run.final.amps)
        rounds_ = zip(bred_in[:-1], log, run.outputs_per_round, run.success_norms, strict=True)
        for index, (out, norms, _), output, norm in rounds_:
            (j,) = np.flatnonzero(index == i)
            assert fock.FockState(out[j]).amps.tobytes() == output.amps.tobytes()
            assert float(norms[j]) == norm
    assert alive.tolist() == survivors == bred_in[-1].tolist()
    assert bred.tobytes() == np.array(finals, dtype=complex).reshape(-1, dim).tobytes()


def test_no_module_rebinds_global_or_enclosing_names():
    # Process-wide state lives only in caches of pure functions, so no module
    # has a `global` or `nonlocal` statement that could race between threads.
    found = [
        (path.stem, node.lineno)
        for path in sorted(Path(sqewit.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert found == []


# Bad counts and dimensions, each refused by `errors._require` with a message
# that names the argument, not by numpy's TypeError, a later failure, or a
# message about another argument.
_REFUSALS = {
    "annihilation": (lambda: fock.annihilation(2.5), "dim"),
    "crop": (lambda: fock.crop(np.eye(3), 2.5), "dim"),
    "crop_beyond": (lambda: fock.crop(np.eye(3), 4), "dim"),
    "hermite_functions": (lambda: fock.hermite_functions(2.5, np.zeros(2)), "n_max"),
    "momentum_eigenbra": (lambda: fock.momentum_eigenbra(2.5), "dim"),
    "basis_state_dim": (lambda: fock.vacuum(0), "dim"),
    "basis_state_n": (lambda: fock.basis_state(3, 3), "n"),
    "bs_p0_kernel": (lambda: fock._bs_p0_kernel(2.5), "dim"),
    "qnd_p0_factor": (lambda: fock._p0_output("QND", np.zeros(0), np.zeros(0)), "dim"),
    "breed_protocol": (lambda: breeding.breed_protocol(fock.vacuum(2), 1.5), "rounds"),
    "build_q0": (lambda: breeding.build_q0(2.5), "dim"),
    "gkp_witness": (lambda: breeding.gkp_witness(0), "dim"),
    "nsga_seed": (lambda: pareto.NsgaConfig(seed=1.5), "seed"),
    "nsga_population": (lambda: pareto.NsgaConfig(seed=1, population=4.0), "population"),
    "nsga_generations": (lambda: pareto.NsgaConfig(seed=1, generations=2.5), "generations"),
    "annihilation_bool": (lambda: fock.annihilation(True), "dim"),
    "vacuum_bool": (lambda: fock.vacuum(True), "dim"),
    "momentum_eigenbra_bool": (lambda: fock.momentum_eigenbra(True), "dim"),
    "build_q0_bool": (lambda: breeding.build_q0(True), "dim"),
    "nsga_seed_bool": (lambda: pareto.NsgaConfig(seed=True), "seed"),
    "evolve": (
        lambda: pareto.evolve(
            "gkp", witness.WitnessSpec(u=2.0, phi=0.0, c=1.0, dim=2), pareto.NsgaConfig(seed=1), breeding_rounds=1.5
        ),
        "breeding_rounds",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_bad_counts_and_dimensions_are_refused_by_name(case):
    call, name = _REFUSALS[case]
    with pytest.raises(ContractViolationError, match=f"^{name} must be "):
        call()

