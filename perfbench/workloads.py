"""The three workloads: job lists drawn from a seed over fixed input pools.

A seed picks parameters from the pools below but never changes the shape of
a job list (how many jobs of each command, at which dimensions), so the work
per pass is the same for every seed and run-to-run spread is noise, not
input choice. Every pool entry has a recorded reference value in
reference.json; `pool(name)` lists the jobs that cover the whole pool.

Each job is a dict: `cmd`, `kind` and `dim` (the cold-job key), `args` (the
CLI argument list, run with the pass directory as working directory), `out`
(its main output path), and `ref` (the reference key of its checked values).
"""

from __future__ import annotations

import math
import random

PHI = {"0": 0.0, "pi": math.pi, "pi/2": math.pi / 2, "pi/3": math.pi / 3, "3pi/2": 1.5 * math.pi}

# single-mode: every pass runs all three u values in all three parity sectors,
# because sweep cost depends strongly on u (harmonic count of the comb); the
# seed picks the sector order, phi, c and which sector also sweeps 40..200.
SM_U = (2.0, 3.0, 4.0)
SM_SECTOR_PHI = {"even": ("0",), "odd": ("pi",), "full": ("pi/2", "pi/3", "3pi/2")}
SM_C = (5.0, 10.0, 20.0)
SM_SMALL_DIMS = tuple(range(3, 13))  # the README's 3:12
SM_LARGE_DIMS = (40, 80, 120, 160, 200)
SM_WIGNER_DIM = 8
SM_WIGNER_ARGS = ("--xmax", "6", "--pmax", "6", "--step", "0.05")
SM_ACC_NMAX = 30

# gate-breed: two ground states and two squeezed cats per dimension, in
# ascending dimension order for every seed: which couplers are cached when
# the next one is built sets the peak RSS.
GB_DIMS = (30, 40, 50, 60)
GB_GROUND = tuple((u, phi) for u in (2.0, 2.5, 3.0) for phi in ("0", "pi"))
GB_GROUND_C = 10.0
GB_CATS = tuple((u, r, phi) for u in (2.0, 2.5, 3.0) for r in (0.3, 0.5) for phi in ("0", "pi"))
GB_PER_KIND = 2

# frontier: one `fidelity` and one `gkp` run of 100 generations per pass,
# the run length the workload is defined by (about 40k evaluations per
# pass); the seed picks each run's NSGA-II seed.
FR_DIM = 6
FR_POP = 200
FR_GENS = 100
FR_SEEDS = tuple(range(24))
FR_PROBLEMS = ("fidelity", "gkp")
FR_METRIC = {"fidelity": "fidelity", "gkp": "gkp_db"}

WORKLOADS = ("single-mode", "gate-breed", "frontier")


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# single-mode
# ---------------------------------------------------------------------------


def _triple_key(u, phi, c) -> str:
    return f"u={u}|phi={phi}|c={c}"


def _ground_jobs(tag: str, u: float, phi: str, c: float, dims, large: bool) -> list[dict]:
    key = _triple_key(u, phi, c)
    out = f"{tag}{'L' if large else 'S'}"
    dims_arg = ",".join(map(str, dims)) if large else f"{dims[0]}:{dims[-1]}"
    flags = ["--u", _num(u), "--phi", _num(PHI[phi]), "--c", _num(c)]
    jobs = [{
        "cmd": "ground", "kind": "-", "dim": max(dims), "dims": list(dims), "out": out,
        "ref": f"ground|{key}", "args": ["ground", *flags, "--dims", dims_arg, "--out", out],
    }]
    for n in dims:
        state = f"{out}/state_N{n}.json"
        jobs.append({
            "cmd": "witness", "kind": "-", "dim": n, "out": f"{tag}_w{n}.json",
            "ref": f"witness|{key}|N={n}",
            "args": ["witness", "--state", state, *flags, "--out", f"{tag}_w{n}.json"],
        })
    return jobs


def _wigner_job(tag: str, u, phi, c) -> dict:
    out = f"{tag}_wigner.csv"
    return {
        "cmd": "wigner", "kind": "-", "dim": SM_WIGNER_DIM, "out": out,
        "ref": f"wigner|{_triple_key(u, phi, c)}|N={SM_WIGNER_DIM}",
        "args": ["wigner", "--state", f"{tag}S/state_N{SM_WIGNER_DIM}.json", *SM_WIGNER_ARGS,
                 "--out", out],
    }


def _accuracy_job(u) -> dict:
    out = f"acc_u{u}.csv"
    return {
        "cmd": "opaccuracy", "kind": "-", "dim": SM_ACC_NMAX, "out": out,
        "ref": f"opaccuracy|u={u}|nmax={SM_ACC_NMAX}",
        "args": ["opaccuracy", "--u", _num(u), "--k", "100", "--nmax", str(SM_ACC_NMAX), "--out", out],
    }


def single_mode(seed: int) -> tuple[list[dict], list[dict]]:
    rng = random.Random(seed)
    jobs = []
    # u runs in a fixed order, so the cold jobs (the first of each command and
    # dimension) always come from the same u: witness cost depends on u.
    for u in SM_U:
        sectors = list(SM_SECTOR_PHI)
        rng.shuffle(sectors)
        large = rng.choice(sectors)
        for sector in sectors:
            phi, c = rng.choice(SM_SECTOR_PHI[sector]), rng.choice(SM_C)
            tag = f"t{len(jobs)}"
            jobs += _ground_jobs(tag, u, phi, c, SM_SMALL_DIMS, large=False)
            if sector == large:
                jobs += _ground_jobs(tag, u, phi, c, SM_LARGE_DIMS, large=True)
                jobs.append(_wigner_job(tag, u, phi, c))
    jobs += [_accuracy_job(u) for u in SM_U]
    return jobs, []


def _single_mode_pool() -> tuple[list[dict], list[dict]]:
    jobs = []
    i = 0
    for u in SM_U:
        for phis in SM_SECTOR_PHI.values():
            for phi in phis:
                for c in SM_C:
                    tag = f"t{i}"
                    i += 1
                    jobs += _ground_jobs(tag, u, phi, c, SM_SMALL_DIMS, large=False)
                    jobs += _ground_jobs(tag, u, phi, c, SM_LARGE_DIMS, large=True)
                    jobs.append(_wigner_job(tag, u, phi, c))
    jobs += [_accuracy_job(u) for u in SM_U]
    return jobs, []


# ---------------------------------------------------------------------------
# gate-breed
# ---------------------------------------------------------------------------


def _resource(entry, n: int) -> dict:
    if len(entry) == 2:
        u, phi = entry
        return {"type": "ground", "u": u, "phi": phi, "c": GB_GROUND_C, "dim": n,
                "key": f"ground|u={u}|phi={phi}|N={n}"}
    u, r, phi = entry
    return {"type": "cat", "u": u, "r": r, "phi": phi, "dim": n,
            "key": f"cat|u={u}|r={r}|phi={phi}|N={n}"}


def resource_file(res: dict) -> str:
    return "../inputs/" + res["key"].replace("|", "_").replace("=", "").replace("/", "") + ".json"


def _resource_jobs(tag: str, res: dict) -> list[dict]:
    state = resource_file(res)
    n = res["dim"]
    flags = ["--u", _num(res["u"]), "--phi", _num(PHI[res["phi"]])]
    jobs = []
    for kind in ("BS", "QND"):
        out = f"{tag}_gate{kind}.json"
        jobs.append({
            "cmd": "gate", "kind": kind, "dim": n, "out": out, "ref": f"gate|{kind}|{res['key']}",
            "args": ["gate", "--state", state, "--kind", kind, *flags, "--out", out],
        })
    out, state_out = f"{tag}_breed.json", f"{tag}_bred.json"
    jobs.append({
        "cmd": "breed", "kind": "-", "dim": n, "out": out, "state_out": state_out,
        "ref": f"breed|{res['key']}",
        "args": ["breed", "--state", state, "--rounds", "2", "--out", out, "--state-out", state_out],
    })
    return jobs


def gate_breed(seed: int) -> tuple[list[dict], list[dict]]:
    rng = random.Random(seed)
    jobs, resources = [], []
    for n in GB_DIMS:
        picked = [_resource(e, n) for e in rng.sample(GB_GROUND, GB_PER_KIND)]
        picked += [_resource(e, n) for e in rng.sample(GB_CATS, GB_PER_KIND)]
        rng.shuffle(picked)
        for res in picked:
            jobs += _resource_jobs(f"r{len(resources)}", res)
            resources.append(res)
    return jobs, resources


def _gate_breed_pool() -> tuple[list[dict], list[dict]]:
    jobs, resources = [], []
    for n in GB_DIMS:
        for entry in GB_GROUND + GB_CATS:
            res = _resource(entry, n)
            jobs += _resource_jobs(f"r{len(resources)}", res)
            resources.append(res)
    return jobs, resources


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------


def _frontier_job(i: int, problem: str, seed: int) -> dict:
    out = f"f{i}_{problem}.csv"
    return {
        "cmd": "frontier", "kind": problem, "dim": FR_DIM, "out": out,
        "metric": FR_METRIC[problem], "ref": f"frontier|{problem}|seed={seed}|gens={FR_GENS}",
        "args": ["frontier", "--problem", problem, "--dim", str(FR_DIM), "--pop", str(FR_POP),
                 "--gens", str(FR_GENS), "--seed", str(seed), "--out", out],
    }


def frontier(seed: int) -> tuple[list[dict], list[dict]]:
    rng = random.Random(seed)
    return [_frontier_job(i, p, rng.choice(FR_SEEDS)) for i, p in enumerate(FR_PROBLEMS)], []


def _frontier_pool() -> tuple[list[dict], list[dict]]:
    picks = [(p, s) for p in FR_PROBLEMS for s in FR_SEEDS]
    return [_frontier_job(i, p, s) for i, (p, s) in enumerate(picks)], []


def build(name: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(jobs, resources) of one workload for one seed."""
    return {"single-mode": single_mode, "gate-breed": gate_breed, "frontier": frontier}[name](seed)


def pool(name: str) -> tuple[list[dict], list[dict]]:
    """(jobs, resources) covering every pool entry of a workload once."""
    return {
        "single-mode": _single_mode_pool,
        "gate-breed": _gate_breed_pool,
        "frontier": _frontier_pool,
    }[name]()
