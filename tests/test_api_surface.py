"""Pin of the Python API: each public module's names and parameters.

`test_cli_surface_unchanged` pins the command line; this pins the package
under it. A public name is one a module binds at its top level (for the
package, the names it re-exports) that does not start with an underscore.
Each maps to the parameter names of its `inspect.signature`, or to None
where there is none (a constant, a click command, an exception class).
Classes add an entry per public method or property, and `__call__`.
A change that adds, removes or renames a name or a parameter updates
`API_SURFACE` here, in the same diff.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import sqewit

API_SURFACE = {
    "sqewit": {
        "ContractViolationError": None, "OptimizerFailure": None, "ProjectionAnnihilatedError": None,
        "SqewitError": None, "TruncationLossError": ("message", "required_dim"),
    },
    "sqewit.errors": {
        "SqewitError": None, "ContractViolationError": None, "InputFormatError": None,
        "TruncationLossError": ("message", "required_dim"), "ProjectionAnnihilatedError": None,
        "OptimizerFailure": None,
    },
    "sqewit.fock": {
        "HERMITICITY_TOL": None, "COUPLER_KINDS": None, "annihilation": ("dim",), "quadratures": ("dim",),
        "crop": ("matrix", "dim"), "EigenDecomposition": ("values", "vectors"),
        "hermiticity_defect": ("matrix",), "is_hermitian": ("matrix",), "hermitian_eig": ("matrix",),
        "matrix_function": ("eig", "f"), "GENERATORS": None, "generator_spectrum": ("name", "dim"),
        "displacement_x": ("u", "dim"), "ExactDisplacements": ("dim",),
        "ExactDisplacements.__call__": ("self", "s"), "squeeze": ("r", "dim"),
        "coupler_generator": ("kind", "dim"), "two_mode_coupler": ("kind", "dim"),
        "p0_kernel": ("kind", "dim"), "hermite_functions": ("n_max", "t"), "momentum_eigenbra": ("dim",),
        "FockState": ("amps",), "FockState.dim": None, "basis_state": ("dim", "n"), "vacuum": ("dim",),
        "expectation": ("op", "state"), "overlap_fidelity": ("psi", "phi"),
        "position_wavefunction": ("state", "xs"), "wigner": ("state", "xs", "ps"),
    },
    "sqewit.witness": {
        "EXPECTATION_FLOOR": None, "GAUSSIAN_R_BRACKET": None, "WitnessSpec": ("u", "phi", "c", "dim", "k"),
        "position_quartic": ("u", "dim"), "comb_prefactor": ("u", "k"),
        "momentum_comb": ("u", "phi", "k", "dim"), "comb_points": ("u", "phi", "j_values"),
        "comb_diagonal_exact": ("u", "phi", "n", "j_cut"),
        "AccuracyRow": ("n", "exact", "approx", "rel_error"), "accuracy_scan": ("u", "k", "n_max"),
        "build_witness": ("spec",), "theta3_half_pi": ("q",),
        "GaussianBound": ("value", "branch", "argmin_r"), "squeezed_vacuum_expectation": ("u", "c", "r"),
        "gaussian_bound": ("u", "c"), "ratio_db": ("value", "benchmark"),
        "sqe_squeezing_db": ("state", "spec", "bound"), "witness_report": ("state", "spec"),
    },
    "sqewit.states": {
        "TRUNCATION_LOSS_MAX": None, "DEGENERACY_GAP": None, "CatSpec": ("u", "r", "phi", "dim"),
        "squeezed_cat": ("spec", "max_loss"), "even_cat_expectation_closed_form": ("u", "r"),
        "stellar_rank_bound": ("dim", "sector"),
        "GroundStateReport": ("state", "eigenvalue", "xi_db", "stellar_rank_bound", "degenerate", "sector"),
        "optimal_sqe_approximation": ("spec", "sector"), "ground_state_sweep": ("u", "phi", "c", "dims", "k"),
        "ideal_gate_target": ("kind", "u", "phi", "dim"),
    },
    "sqewit.gates": {
        "ANNIHILATION_EPS": None, "GateOutcome": ("output", "success_norm"),
        "couple_and_condition": ("mode1", "mode2", "kind"), "conditional_output": ("resource", "kind"),
        "gate_report": ("resource", "kind", "u", "phi"),
    },
    "sqewit.breeding": {
        "breed_round": ("a", "b"), "BreedingRun": ("input", "rounds", "outputs_per_round", "success_norms"),
        "BreedingRun.final": None, "breed_protocol": ("state", "rounds"), "build_q0": ("dim",),
        "GkpWitness": ("dim", "matrix", "gaussian_min"), "gkp_witness": ("dim",), "gaussian_min_q0": ("dim",),
        "gkp_squeezing_db": ("state", "witness"), "breeding_report": ("run",),
    },
    "sqewit.pareto": {
        "GENE_LOW": None, "GENE_HIGH": None, "DECODE_EPS": None, "PROBLEMS": None, "CROSSOVER_PROB": None,
        "CROSSOVER_ETA": None, "MUTATION_ETA": None, "NsgaConfig": ("seed", "population", "generations"),
        "decode": ("genome",), "non_dominated_sort": ("objectives",),
        "crowding_distance": ("objectives", "front"), "variation": ("parents", "rng"),
        "ParetoPoint": ("genome", "objective_1", "objective_2", "xi_sqe_db", "metric_value", "crowding"),
        "EvolveResult": ("points", "history", "metric_name", "evaluations"),
        "evolve": ("problem", "spec", "cfg", "breeding_rounds"), "hypervolume": ("objectives", "reference"),
        "dominated_front_points": ("front_objs", "challenger_objs"),
    },
    "sqewit.serialize": {
        "NORM_WARN_TOL": None, "state_to_dict": ("state", "metadata"), "read_json": ("path",),
        "write_text": ("path", "text"), "check_writable": ("paths",), "make_dir": ("path",),
        "save_state": ("path", "state", "metadata"), "state_from_dict": ("payload",), "load_state": ("path",),
        "write_csv": ("path", "header", "columns"), "json_text": ("payload",),
        "dump_json": ("path", "payload"),
    },
    "sqewit.cli": {
        "EXIT_INPUT": None, "EXIT_CONTRACT": None, "main": None, "cmd_witness": None, "cmd_ground": None,
        "cmd_gate": None, "cmd_breed": None, "cmd_frontier": None, "cmd_wigner": None, "cmd_opaccuracy": None,
    },
}


def _params(obj):
    if not (inspect.isroutine(obj) or inspect.isclass(obj)):
        return None
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # a class whose constructor is a builtin's
        return None


def _defined_names(module):
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id
        elif isinstance(node, ast.ImportFrom) and node.level and module.__name__ == "sqewit":
            yield from (alias.asname or alias.name for alias in node.names)


def _surface(module):
    out = {}
    for name in _defined_names(module):
        obj = getattr(module, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        out[name] = _params(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                public = not attr.startswith("_") or attr == "__call__"
                if public and (inspect.isfunction(member) or isinstance(member, property)):
                    out[f"{name}.{attr}"] = _params(member)
    return out


def test_python_api_surface_unchanged():
    files = Path(sqewit.__file__).parent.glob("*.py")
    modules = {"sqewit"} | {f"sqewit.{path.stem}" for path in files if not path.stem.startswith("_")}
    assert modules == set(API_SURFACE)
    got = {name: _surface(importlib.import_module(name)) for name in API_SURFACE}
    assert got == API_SURFACE
