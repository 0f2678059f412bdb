"""Bitwise pins of sqewit's outputs: one place to compute, record and diff the three stores.

Each store is a JSON file next to this module, `<store>_pin.json`, written as
`json.dumps(values, indent=1)` plus a newline. Hex floats are `float.hex`
strings and digests are sha256 hex strings. `tests/test_pins.py` compares
the construction and csv stores key by key with `==`, with no tolerance;
`tests/test_pareto.py::TestEvolve::test_bitwise_pin` does the same for each
problem of the pareto store. All of them read one shared computation.

- `construction`: `float.hex` values and sha256 digests of the Gaussian
  constructions, recorded while every builder still took a `pad=` argument.
  The sha256 of `witness.momentum_comb` for u in {2, 3, 4}, phi in
  {0, pi, pi/3} and N in {12, 62, 200} was recorded while each comb
  harmonic still evaluated its Laguerre factors elementwise with
  `scipy.special.eval_genlaguerre`; the N = 62 and 200 digests were
  re-recorded when `fock.ExactDisplacements` took exact binomials in place
  of `scipy.special.binom` (a largest move of 8.8e-14 of the largest
  entry). `gaussian_min_q0`, the GKP benchmark `gkp_witness(N).gaussian_min`,
  at N = 40 and 60, the gate-breed benchmark's dimensions, was recorded
  while each Gaussian candidate still went through all its eigenbases per
  evaluation and every padded builder solved its own spectrum. The `gaussian_bound` keys at
  u = 3 (k = 100) were recorded while the benchmark still priced the comb
  as the k -> infinity projector comb; they sit where that made no
  difference (c = 0, and the infinitely squeezed branch). The three keys
  named with u, c and k sit on the squeezed-vacuum branch and were added
  when the benchmark came to price the witness's own sin^2k harmonics.
  The `p0_kernel_sha256` keys (now the beam splitter's alone),
  `two_mode_coupler_QND_N8_sha256` and the `frontier_N6_sha256` keys were
  recorded while the QND kernel and coupler still solved their own x and p
  spectra. The QND p = 0 kernel's keys gave way to `qnd_p0_factor_sha256`
  when the gate came to contract one N x N factor in O(N²), with no N³
  kernel, and those to the `qnd_gate` keys (the QND gate's `success_norm`
  and output on squeezed cats) when that factor became a local of
  `fock._p0_output`, no longer a public function to pin.
  `frontier_N6_sha256`, with `ideal_gate_target|BS|N=6`, `gaussian_min_q0|N=6` and
  `gaussian_bound|c=10.0`, holds every input of a frontier run at the CLI
  defaults (u = 3, phi = 0, c = 10, k = 100, N = 6). NSGA-II turns a
  last-bit move of any of them into other fronts, so a move of an N = 6
  key will likely move perfbench's frontier references too: one last-bit
  change of the comb weights moved 23 of its 48. The
  `accuracy_scan_u2_k100_nmax80_approx_sha256` key was added when the scan
  came to read its diagonal from a build at n_max + 1 levels (at twice the
  depth, the skip rule of `momentum_comb` dropped the m = 1 harmonic), and
  `hermite_functions_N1000_sha256`, on `hermite_grid(1000)`, when the
  recurrence came to lift starts that underflow.
- `csv`: the sha256 of the files the CLI writes, not only its CSV tables.
  The CSV keys were recorded while `serialize.write_csv` still formatted
  each cell on its own (`f"{value:.17g}"` for floats, `str` otherwise, one
  join per row). The two `wigner` keys were re-recorded when `fock.wigner`
  moved to Clenshaw summation, and `ground|u=3|phi=pi|dims=9:9` when the
  odd sector's `stellar_bound` became its highest level (7, not 8), and
  `opaccuracy|u=3|k=100|nmax=30|acc.csv` when every level of the exact
  comb diagonal came to sum over the deepest level's cut (3 of its 31
  exact cells moved by 1 ulp). Both `ground` keys were re-recorded when a
  ground record's `xi_db` came to be read from its own sector eigenvalue,
  `ratio_db(eigenvalue, bound)`, not from a second witness product on the
  state: only `xi_db` cells moved (index rows and the N = 8 state file's
  metadata), by at most 7.3e-15 relative. The
  JSON records (a ground state file, the witness, gate and breed reports,
  the bred state file and the frontier `.meta.json` files) were added once
  no output held a clock reading and each input was echoed once, under
  `metadata.config` or the frontier's `config`.
- `pareto`: `float.hex` of the NSGA-II history and of each front point's
  (objective_1, objective_2, crowding) for seed 3, population 20 and 20
  generations at N = 4, recorded with the O(n^2) peeling sort re-run on
  every generation's parents. It was recorded in-process with a threaded
  BLAS and is the same under one thread.

All stores are computed in one child process with one BLAS thread: a
threaded BLAS sums the larger products in another order, which moves
the `gaussian_min_q0|N=30` key by one ulp.

Re-record only on purpose. From the repository root:

    python tests/pins.py [STORE ...]

recomputes the named stores (all by default), rewrites their files and
prints one row per key that moved, was added or was removed: the key as
`store|path`, its old and new value, and the relative change (for a list,
its largest entry move and how many entries moved). `git diff` shows a
write and `git checkout` undoes it. Add keys freely; a key may move only
when its producer changed on purpose, and the printed table goes into
CHANGES.md grouped by cause.
"""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

# The checkout's own package comes first, so the recorder pins the tree it sits in.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import sqewit  # noqa: E402
from sqewit import breeding, fock, gates, pareto, states, witness  # noqa: E402
from sqewit.cli import main  # noqa: E402
from sqewit.pareto import NsgaConfig  # noqa: E402
from sqewit.states import CatSpec  # noqa: E402
from sqewit.witness import WitnessSpec  # noqa: E402

HERE = Path(__file__).resolve().parent


def _hexes(amps):
    return [[float(z.real).hex(), float(z.imag).hex()] for z in np.asarray(amps)]


def _sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def hermite_grid(levels: int) -> tuple[np.ndarray, float]:
    """A uniform grid and its step on which `levels` Hermite functions are orthonormal.

    It reaches 8 past the turning point sqrt(2 levels + 1), at half the step
    that resolves the products of the first `levels` functions.
    """
    half_width = math.sqrt(2 * levels + 1) + 8.0
    step = 0.5 * math.pi / half_width
    m = int(half_width / step)
    return np.arange(-m, m + 1) * step, step


def construction_values() -> dict:
    values = {"ideal_gate_target": {}, "gaussian_min_q0": {}, "gaussian_bound": {}}
    for kind in ("BS", "QND"):
        for n in (6, 60):
            target = states.ideal_gate_target(kind, 3.0, 0.0, n)
            values["ideal_gate_target"][f"{kind}|N={n}"] = _hexes(target.amps)
    # One gate-breed benchmark pool cat, at the pool's smallest dimension.
    values["squeezed_cat"] = _hexes(states.squeezed_cat(CatSpec(u=3.0, r=0.5, phi=math.pi, dim=30)).amps)
    for n in (6, 30, 40, 60):
        values["gaussian_min_q0"][f"N={n}"] = breeding.gkp_witness(n).gaussian_min.hex()
    for key, (u, c, k) in (
        ("c=0.0", (3.0, 0.0, 100)),
        ("c=10.0", (3.0, 10.0, 100)),
        ("u=0.5|c=50.0|k=20", (0.5, 50.0, 20)),
        ("u=0.5|c=50.0|k=100", (0.5, 50.0, 100)),
        ("u=1.0|c=10.0|k=100", (1.0, 10.0, 100)),
    ):
        b = witness.gaussian_bound(u, c, k)
        values["gaussian_bound"][key] = [b.value.hex(), b.branch, None if b.argmin_r is None else b.argmin_r.hex()]
    values["build_q0_N30_sha256"] = _sha(breeding.build_q0(30))
    values["displacement_x_u3_N25_sha256"] = _sha(fock.displacement_x(3.0, 25))
    values["squeeze_r1_N60_sha256"] = _sha(fock.squeeze(1.0, 60))
    values["p0_kernel_sha256"] = {f"BS|N={n}": _sha(fock._bs_p0_kernel(n)) for n in (30, 60)}
    values["qnd_gate"] = {}
    for label, n, ancilla in (
        ("vacuum|N=30", 30, None),
        ("vacuum|N=60", 60, None),
        ("cat|N=30", 30, CatSpec(u=1.0, r=0.5, phi=0.0, dim=30)),
    ):
        cat = states.squeezed_cat(CatSpec(u=3.0, r=0.5, phi=math.pi, dim=n))
        mode2 = fock.vacuum(n) if ancilla is None else states.squeezed_cat(ancilla)
        got = gates.couple_and_condition(cat, mode2, "QND")
        values["qnd_gate"][label] = [got.success_norm.hex(), _sha(got.output.amps)]
    values["two_mode_coupler_QND_N8_sha256"] = _sha(fock.two_mode_coupler("QND", 8))
    # The N = 6 inputs of a frontier run at the CLI defaults; its target and
    # benchmark are `ideal_gate_target|BS|N=6` and `gaussian_min_q0|N=6`.
    values["frontier_N6_sha256"] = {
        "build_witness": _sha(witness.build_witness(WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=6, k=100))),
        "two_mode_coupler_BS": _sha(fock.two_mode_coupler("BS", 6)),
        "momentum_eigenbra": _sha(fock.momentum_eigenbra(6)),
        "gkp_witness_matrix": _sha(breeding.gkp_witness(6).matrix),
    }
    values["momentum_comb_sha256"] = {
        f"u={u}|phi={label}|N={n}": _sha(witness.momentum_comb(u, phi, 100, n))
        for u in (2.0, 3.0, 4.0)
        for label, phi in (("0", 0.0), ("pi", math.pi), ("pi/3", math.pi / 3))
        for n in (12, 62, 200)
    }
    scan = witness.accuracy_scan(2.0, 100, 80)
    values["accuracy_scan_u2_k100_nmax80_approx_sha256"] = _sha(np.array([row.approx for row in scan]))
    values["hermite_functions_N1000_sha256"] = _sha(fock.hermite_functions(999, hermite_grid(1000)[0]))
    return values


# Each run: (key prefix, CLI arguments, files it writes relative to the work directory).
_PI = repr(math.pi)
RUNS = (
    ("ground|u=3|phi=0|dims=3:12", ["ground", "--dims", "3:12", "--out", "g"], ["g/index.csv", "g/state_N8.json"]),
    ("ground|u=3|phi=pi|dims=9:9", ["ground", "--phi", _PI, "--dims", "9:9", "--out", "godd"], ["godd/index.csv"]),
    (
        "wigner|even N=8|xmax=6|pmax=6|step=0.05",
        ["wigner", "--state", "g/state_N8.json", "--xmax", "6", "--pmax", "6", "--step", "0.05", "--out", "w8.csv"],
        ["w8.csv"],
    ),
    (
        "wigner|odd N=9|xmax=3|pmax=4|step=0.07",
        ["wigner", "--state", "godd/state_N9.json", "--xmax", "3", "--pmax", "4", "--step", "0.07", "--out", "w9.csv"],
        ["w9.csv"],
    ),
    ("opaccuracy|u=3|k=100|nmax=30", ["opaccuracy", "--nmax", "30", "--out", "acc.csv"], ["acc.csv"]),
    ("witness|even N=8|u=3|phi=0|c=10|k=100", ["witness", "--state", "g/state_N8.json", "--out", "w.json"], ["w.json"]),
    (
        "gate|even N=8|kind=QND|u=2|phi=0",
        ["gate", "--state", "g/state_N8.json", "--kind", "qnd", "--u", "2", "--out", "gate.json"],
        ["gate.json"],
    ),
    (
        "breed|even N=8|rounds=2",
        ["breed", "--state", "g/state_N8.json", "--rounds", "2", "--out", "b.json", "--state-out", "bred.json"],
        ["b.json", "bred.json"],
    ),
    (
        "frontier|fidelity|dim=4|pop=20|gens=5|seed=1",
        ["frontier", "--dim", "4", "--pop", "20", "--gens", "5", "--seed", "1", "--out", "f.csv"],
        ["f.csv", "f.genomes.csv", "f.meta.json"],
    ),
    (
        "frontier|fidelity|dim=4|pop=20|gens=0|seed=2",
        ["frontier", "--dim", "4", "--pop", "20", "--gens", "0", "--seed", "2", "--out", "f0.csv"],
        ["f0.csv", "f0.genomes.csv", "f0.meta.json"],
    ),
    (
        "frontier|gkp|dim=4|pop=12|gens=2|seed=3",
        ["frontier", "--problem", "gkp", "--dim", "4", "--pop", "12", "--gens", "2", "--seed", "3", "--out", "fg.csv"],
        ["fg.csv", "fg.genomes.csv", "fg.meta.json"],
    ),
)


def csv_digests() -> dict:
    runner = CliRunner()
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for prefix, args, files in RUNS:
                result = runner.invoke(main, args)
                assert result.exit_code == 0, (args, result.output)
                for name in files:
                    digests[f"{prefix}|{Path(name).name}"] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return digests


def pareto_runs() -> dict:
    spec = WitnessSpec(u=3.0, phi=0.0, c=10.0, dim=4, k=100)
    runs = {}
    for problem in pareto.PROBLEMS:
        res = pareto.evolve(problem, spec, NsgaConfig(seed=3, population=20, generations=20))
        runs[problem] = {
            "history": [[float(v).hex() for v in row] for row in res.history],
            "front": [[p.objective_1.hex(), p.objective_2.hex(), p.crowding.hex()] for p in res.points],
        }
    return runs


STORES = {"construction": construction_values, "csv": csv_digests, "pareto": pareto_runs}


def path(store: str) -> Path:
    return HERE / f"{store}_pin.json"


def dumps(values) -> str:
    """A store's file text."""
    return json.dumps(values, indent=1) + "\n"


def load(store: str):
    return json.loads(path(store).read_text())


def compute(stores) -> dict:
    """{store: values} of the named stores, computed in one child process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(sqewit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(HERE), src, env.get("PYTHONPATH"))))
    code = "import json, sys, pins; json.dump({s: pins.STORES[s]() for s in sys.argv[1:]}, sys.stdout)"
    done = subprocess.run([sys.executable, "-c", code, *stores], env=env, capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"pin computation failed:\n{done.stderr}")
    return json.loads(done.stdout)


@functools.cache
def computed() -> dict:
    """Every store, computed once per test session by one `compute` call."""
    return compute(list(STORES))


def _flatten(values, prefix=()) -> dict:
    """{key path: leaf} of nested dicts; a list is one leaf."""
    if not isinstance(values, dict):
        return {prefix: values}
    flat = {}
    for key, value in values.items():
        flat.update(_flatten(value, prefix + (key,)))
    return flat


def _entries(value, index=""):
    """(index, scalar) pairs of a nested list, such as ("[3][1]", "0x1.8p-2")."""
    if not isinstance(value, list):
        return [(index, value)]
    return [entry for i, item in enumerate(value) for entry in _entries(item, f"{index}[{i}]")]


def _float(value):
    """The float a `float.hex` string holds, else None: digests and names are not floats."""
    if isinstance(value, str) and (value.lstrip("-").startswith("0x") or value in ("inf", "-inf", "nan")):
        return float.fromhex(value)
    return None


def _relative(old, new):
    a, b = _float(old), _float(new)
    if a is None or b is None:
        return None
    if a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a)


def _show(value) -> str:
    if isinstance(value, list):
        return f"{len(_entries(value))} entries"
    x = _float(value)
    text = str(value) if x is None else repr(x)
    return text if len(text) <= 24 else text[:12] + "..."


def _moved(key: str, old, new) -> tuple:
    before, after = _entries(old), _entries(new)
    if [i for i, _ in before] != [i for i, _ in after]:
        return key, _show(old), _show(new), "reshaped"
    moved = [(i, a, b, _relative(a, b)) for (i, a), (_, b) in zip(before, after) if a != b]
    index, a, b, rel = max(moved, key=lambda m: math.inf if m[3] is None else m[3])
    change = "changed" if rel is None else f"rel {rel:.2g}"
    if isinstance(old, list):
        change = f"{change if rel is None else 'max ' + change}, {len(moved)} of {len(before)} moved"
    return key + index, _show(a), _show(b), change


def diff(old: dict, new: dict) -> list:
    """Rows (key, old, new, change) for each key that moved, was added or was removed.

    `old` and `new` map store names to store values; a row's key reads
    `store|path`, with the index of the largest move for a list.
    """
    before, after = _flatten(old), _flatten(new)
    rows = []
    for key_path in [*before, *(p for p in after if p not in before)]:
        key = "|".join(key_path)
        if key_path not in after:
            rows.append((key, _show(before[key_path]), "-", "removed"))
        elif key_path not in before:
            rows.append((key, "-", _show(after[key_path]), "added"))
        elif before[key_path] != after[key_path]:
            rows.append(_moved(key, before[key_path], after[key_path]))
    return rows


def table(rows) -> str:
    """The rows in aligned columns under a header; empty when no key moved."""
    if not rows:
        return ""
    lines = [("key", "old", "new", "change"), *rows]
    widths = [max(len(line[c]) for line in lines) for c in range(3)]
    return "\n".join("  ".join([*(cell.ljust(w) for cell, w in zip(line, widths)), line[3]]) for line in lines)


def report(store: str, want, got) -> str:
    """A pin test's failure message: the diff table of `want` against `got` under `store`."""
    return "\n" + table(diff({store: want}, {store: got}))


def record(stores) -> str:
    """Recompute the named stores, rewrite their files and return the diff table."""
    old = {store: load(store) for store in stores if path(store).exists()}
    new = compute(stores)
    for store in stores:
        path(store).write_text(dumps(new[store]))
    return table(diff(old, new))


if __name__ == "__main__":
    names = sys.argv[1:] or list(STORES)
    unknown = [name for name in names if name not in STORES]
    if unknown:
        sys.exit(f"unknown store(s) {unknown}; expected some of {list(STORES)}")
    print(record(names) or f"no key moved in {', '.join(names)}")
