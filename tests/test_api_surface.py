"""Pin of the Python API: each public module's names and parameters.

`test_cli_surface_unchanged` pins the command line; this pins the package
under it. A public name is one a module binds at its top level (for the
package, the names it re-exports) that does not start with an underscore.
Each maps to the parameter names of its `inspect.signature`, or to None
where there is none (a constant, a click command, an exception class).
Classes add an entry per public method or property, and `__call__`.
A change that adds, removes or renames a name or a parameter updates
`API_SURFACE` here, in the same diff. The benchmark under `perfbench/`
reads some names, private ones too, by string; one test checks that each
is still bound or is named stale. The last test keeps the surface to what
production runs: each public function and class must have a reader.
"""

import ast
import importlib
import inspect
import types
from collections import Counter
from pathlib import Path

import sqewit
from sqewit import cli

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
        "ExactDisplacements.__call__": ("self", "s"), "squeeze": ("r", "dim"), "two_mode_coupler": ("kind", "dim"),
        "hermite_functions": ("n_max", "t"), "momentum_eigenbra": ("dim",),
        "FockState": ("amps",), "FockState.dim": None, "basis_state": ("dim", "n"), "vacuum": ("dim",),
        "expectation": ("op", "state"), "overlap_fidelity": ("psi", "phi"), "wigner": ("state", "xs", "ps"),
    },
    "sqewit.witness": {
        "EXPECTATION_FLOOR": None, "GAUSSIAN_R_BRACKET": None, "WitnessSpec": ("u", "phi", "c", "dim", "k"),
        "position_quartic": ("u", "dim"), "comb_prefactor": ("u", "k"),
        "momentum_comb": ("u", "phi", "k", "dim"), "comb_diagonal_exact": ("u", "n_max"),
        "AccuracyRow": ("n", "exact", "approx", "rel_error"), "accuracy_scan": ("u", "k", "n_max"),
        "build_witness": ("spec",),
        "GaussianBound": ("value", "branch", "argmin_r"), "squeezed_vacuum_expectation": ("u", "c", "r", "k"),
        "gaussian_bound": ("u", "c", "k"), "ratio_db": ("value", "benchmark"), "witness_report": ("state", "spec"),
    },
    "sqewit.states": {
        "TRUNCATION_LOSS_MAX": None, "CatSpec": ("u", "r", "phi", "dim"),
        "squeezed_cat": ("spec", "max_loss"),
        "GroundStateReport": ("state", "eigenvalue", "xi_db", "stellar_rank_bound", "sector"),
        "optimal_sqe_approximation": ("spec",), "ground_state_sweep": ("u", "phi", "c", "dims", "k"),
        "ideal_gate_target": ("kind", "u", "phi", "dim"),
    },
    "sqewit.gates": {
        "ANNIHILATION_EPS": None, "GateOutcome": ("output", "success_norm"),
        "couple_and_condition": ("mode1", "mode2", "kind"), "gate_report": ("resource", "kind", "u", "phi"),
    },
    "sqewit.breeding": {
        "breed_round": ("a", "b"), "BreedingRun": ("input", "outputs_per_round", "success_norms"),
        "BreedingRun.final": None, "breed_protocol": ("state", "rounds"), "build_q0": ("dim",),
        "GkpWitness": ("matrix", "gaussian_min"), "gkp_witness": ("dim",), "gaussian_min_q0": ("dim",),
        "gkp_squeezing_db": ("state",), "breeding_report": ("run",),
    },
    "sqewit.pareto": {
        "GENE_LOW": None, "GENE_HIGH": None, "DECODE_EPS": None, "PROBLEMS": None, "CROSSOVER_PROB": None,
        "CROSSOVER_ETA": None, "MUTATION_ETA": None, "NsgaConfig": ("seed", "population", "generations"),
        "non_dominated_sort": ("objectives", "fill"), "crowding_distance": ("objectives", "sizes"),
        "variation": ("parents", "rng"),
        "ParetoPoint": ("genome", "objective_1", "objective_2", "xi_sqe_db", "metric_value", "crowding"),
        "EvolveResult": ("points", "history", "metric_name", "evaluations"),
        "evolve": ("problem", "spec", "cfg", "breeding_rounds"), "hypervolume": ("objectives", "reference"),
    },
    "sqewit.serialize": {
        "NORM_WARN_TOL": None, "state_to_dict": ("state", "metadata"), "read_json": ("path",),
        "check_writable": ("paths",), "make_dir": ("path",),
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


# Names perfbench reads that sqewit no longer binds. perfbench skips a name
# it cannot find, so the layer it would time reads zero; each entry goes
# when perfbench's wrapper table is next rewritten (ROADMAP item 8).
STALE_PERFBENCH_NAMES = {"fock.displacement_x_exact", "fock.displacement_p", "fock._coupler_cached", "pareto.decode"}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_reads():
    """`module.name` of each sqewit attribute perfbench wraps, reads or counts.

    From `tracer.py`: the targets of `_wrap(tracer, module, name, ...)`, with
    a loop variable resolved to the names of its `for name in (...)`, and
    each `getattr(module, "name")`. From `worker.py`: the `CACHES` table.
    From every perfbench file: each `sqewit.module.name` it spells out.
    """
    modules = {path.stem for path in Path(sqewit.__file__).parent.glob("*.py")}
    reads = set()

    def visit(node, loops):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            loops = {**loops, node.target.id: [elt.value for elt in node.iter.elts]}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("_wrap", "getattr"):
            owner, attr = node.args[1:3] if node.func.id == "_wrap" else node.args[:2]
            if isinstance(owner, ast.Name) and owner.id in modules:
                names = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
                reads.update(f"{owner.id}.{name}" for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(ast.parse((PERFBENCH / "tracer.py").read_text()), {})
    for node in ast.parse((PERFBENCH / "worker.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CACHES"]:
            reads.update(f"{module}.{name}" for module, name in ast.literal_eval(node.value).values())
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            chain = ast.unparse(node).split(".") if isinstance(node, ast.Attribute) else []
            if len(chain) == 3 and chain[0] == "sqewit" and chain[1] in modules:
                reads.add(f"{chain[1]}.{chain[2]}")
    return reads


def test_every_name_perfbench_reads_is_bound_or_known_stale():
    reads = _perfbench_reads()
    # The parse reaches each kind of read: plain and looped _wrap, getattr, CACHES, a spelled-out name.
    assert {"fock.two_mode_coupler", "fock.matrix_function", "pareto.decode", "breeding.gkp_witness",
            "pareto.NsgaConfig"} <= reads

    def bound(name):
        module, attr = name.split(".")
        return hasattr(importlib.import_module(f"sqewit.{module}"), attr)

    missing = {name for name in reads if not bound(name)}
    assert missing <= STALE_PERFBENCH_NAMES, missing - STALE_PERFBENCH_NAMES


def _names_read(tree):
    """How often a syntax tree reads each identifier: loaded names and attributes, never docstring words."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_function_and_class_has_a_production_reader():
    # Code that no production path runs goes, or moves to tests/oracles.py
    # when tests still compare against it. A public top-level function or
    # class counts as read when package code outside its own definition
    # names it, when perfbench reads it (stale names aside), or when it is
    # a command of the `sqewit` CLI.
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(sqewit.__file__).parent.glob("*.py")}
    package = sum((_names_read(tree) for tree in trees.values()), Counter())
    perfbench = _perfbench_reads() - STALE_PERFBENCH_NAMES
    commands = set(map(id, cli.main.commands.values()))
    unread = set()
    for stem, tree in trees.items():
        if stem.startswith("_"):
            continue
        module = importlib.import_module(f"sqewit.{stem}")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            elsewhere = package[node.name] - _names_read(node)[node.name]
            if not (elsewhere or f"{stem}.{node.name}" in perfbench or id(getattr(module, node.name)) in commands):
                unread.add(f"{stem}.{node.name}")
    assert unread == set()
