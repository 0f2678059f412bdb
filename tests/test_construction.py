"""Bitwise pin of the padded Gaussian constructions and the momentum comb, and their padding-free API.

`construction_pin.json` holds float.hex values and sha256 digests of the
padded builders' outputs, recorded while every builder still took a `pad=`
argument, and the sha256 of `witness.momentum_comb` for u in {2, 3, 4},
phi in {0, pi, pi/3} and N in {12, 62, 200}, recorded while each comb
harmonic still evaluated its Laguerre factors elementwise with
`scipy.special.eval_genlaguerre`. `gaussian_min_q0` at N = 40 and 60, the
gate-breed benchmark's dimensions, was recorded while each Gaussian
candidate still went through all its eigenbases per evaluation and every
padded builder solved its own spectrum. The values are computed in a
child process with one BLAS thread: a threaded BLAS sums the larger
products in another order, which moves `gaussian_min_q0(30)` by one ulp. Regenerate the JSON only on purpose:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \
        python tests/test_construction.py > tests/construction_pin.json
"""

import ast
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sqewit
from sqewit import breeding, cli, fock, gates, pareto, serialize, states, witness
from sqewit.states import CatSpec

PIN = Path(__file__).with_name("construction_pin.json")


def _hexes(amps):
    return [[float(z.real).hex(), float(z.imag).hex()] for z in np.asarray(amps)]


def _sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def construction_values() -> dict:
    values = {"ideal_gate_target": {}, "gaussian_min_q0": {}, "gaussian_bound": {}}
    for kind in ("BS", "QND"):
        for n in (6, 60):
            target = states.ideal_gate_target(kind, 3.0, 0.0, n)
            values["ideal_gate_target"][f"{kind}|N={n}"] = _hexes(target.amps)
    # One gate-breed benchmark pool cat, at the pool's smallest dimension.
    values["squeezed_cat"] = _hexes(states.squeezed_cat(CatSpec(u=3.0, r=0.5, phi=math.pi, dim=30)).amps)
    for n in (6, 30, 40, 60):
        values["gaussian_min_q0"][f"N={n}"] = breeding.gaussian_min_q0(n).hex()
    for c in (0.0, 10.0):
        b = witness.gaussian_bound(3.0, c)
        values["gaussian_bound"][f"c={c}"] = [b.value.hex(), b.branch, None if b.argmin_r is None else b.argmin_r.hex()]
    values["build_q0_N30_sha256"] = _sha(breeding.build_q0(30))
    values["displacement_x_u3_N25_sha256"] = _sha(fock.displacement_x(3.0, 25))
    values["squeeze_r1_N60_sha256"] = _sha(fock.squeeze(1.0, 60))
    values["momentum_comb_sha256"] = {
        f"u={u}|phi={label}|N={n}": _sha(witness.momentum_comb(u, phi, 100, n))
        for u in (2.0, 3.0, 4.0)
        for label, phi in (("0", 0.0), ("pi", math.pi), ("pi/3", math.pi / 3))
        for n in (12, 62, 200)
    }
    return values


def test_constructions_bitwise_pinned():
    src = str(Path(sqewit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    got = json.loads(done.stdout)
    want = json.loads(PIN.read_text())
    for key in want:
        assert got[key] == want[key], key
    assert got.keys() == want.keys()


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
    for module, name in (
        (fock, "creation"),
        (fock, "momentum_wavefunction"),
        (fock, "momentum_wavefunction_coeffs"),
        (fock, "number_operator"),
        (fock.FockState, "padded"),
        (witness.GaussianBound, "as_dict"),
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


if __name__ == "__main__":
    print(json.dumps(construction_values(), indent=1))
