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

import sqewit
from sqewit import breeding, cli, fock, gates, pareto, serialize, states, witness
from sqewit.errors import ContractViolationError


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
    for func in (witness.comb_diagonal_exact, witness.comb_points):
        assert "phi" not in inspect.signature(func).parameters, func.__name__
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
        (breeding._CandidateObjective, "displaced_in_p"),
        (breeding._CandidateObjective, "value"),
        (states, "stellar_rank_bound"),
        (gates, "interaction_fidelity"),
        (pareto, "worst_corner"),
        (cli, "_apply_config"),
        (cli, "_echo_or_write"),
        (cli, "_exit_code_for"),
        (cli, "_INPUT_ERRORS"),
        (cli, "_CONTRACT_ERRORS"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    # Frontier points carry no per-point constants: the rank of every
    # reported point is 0 and the metric is named once, on the result.
    assert {"rank", "metric_name"}.isdisjoint(pareto.ParetoPoint.__dataclass_fields__)
    assert "metric_name" in pareto.EvolveResult.__dataclass_fields__


def _file_calls(node, owner, found):
    """Append (enclosing function, called name) for each file call under node."""
    file_calls = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir"}
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in file_calls:
                found.append((owner, name))
        _file_calls(child, child.name if isinstance(child, ast.FunctionDef) else owner, found)


def test_only_serialize_touches_files():
    # One boundary maps read and write failures to InputFormatError (exit 2),
    # and one writer, `serialize._write`, opens every file that is written,
    # so that every write deletes its partial file when it fails.
    calls = []
    for path in sorted(Path(sqewit.__file__).parent.glob("*.py")):
        found = []
        _file_calls(ast.parse(path.read_text()), None, found)
        calls += [(path.stem, owner, name) for owner, name in found]
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

