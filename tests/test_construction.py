"""The padding-free API: no padding knobs, no knobs without callers, one file boundary.

The bitwise values of the Gaussian constructions and the momentum comb are
the `construction` store of `tests/pins.py`.
"""

import ast
import inspect
from pathlib import Path

import sqewit
from sqewit import breeding, cli, fock, gates, pareto, serialize, states, witness


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
    # GKP squeezing finds its own witness, `breeding.gkp_witness(state.dim)`.
    assert "witness" not in inspect.signature(breeding.gkp_squeezing_db).parameters
    # The Gaussian benchmark prices the witness's own comb: k has no default.
    for func in (witness.gaussian_bound, witness.squeezed_vacuum_expectation):
        assert inspect.signature(func).parameters["k"].default is inspect.Parameter.empty, func.__name__
    for module, name in (
        (fock, "creation"),
        (fock, "momentum_wavefunction"),
        (fock, "momentum_wavefunction_coeffs"),
        (fock, "number_operator"),
        (fock, "_qnd_factors"),
        (fock.FockState, "padded"),
        (witness.GaussianBound, "as_dict"),
        (witness, "theta3_half_pi"),
        (witness, "_auto_j_cut"),
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


def test_only_serialize_touches_files():
    # One boundary maps read and write failures to InputFormatError (exit 2).
    file_calls = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir"}
    calls = []
    for path in sorted(Path(sqewit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in file_calls:
                    calls.append((path.stem, name))
    assert {module for module, _ in calls} == {"serialize"}, calls

