"""Command-line surface: witness, ground, gate, breed, frontier, wigner, opaccuracy.

Every command is a pure function of its flags, config file, and seed.
Flags win over config-file values; the effective configuration is echoed
into each output's metadata. Exit codes: 0 ok, 2 input error, 3 contract
violation.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import breeding, fock, gates, pareto, serialize, states, witness
from .errors import (
    ContractViolationError,
    InputFormatError,
    InvalidDimensionError,
    OptimizerFailure,
    ProjectionAnnihilatedError,
    SqewitError,
    TruncationLossError,
)

EXIT_INPUT = 2
EXIT_CONTRACT = 3

_INPUT_ERRORS = (InputFormatError,)
_CONTRACT_ERRORS = (
    ContractViolationError,
    InvalidDimensionError,
    TruncationLossError,
    ProjectionAnnihilatedError,
    OptimizerFailure,
)


def _exit_code_for(exc: SqewitError) -> int:
    if isinstance(exc, _INPUT_ERRORS):
        return EXIT_INPUT
    if isinstance(exc, _CONTRACT_ERRORS):
        return EXIT_CONTRACT
    return 1


def _command(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except SqewitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code_for(exc))

    return wrapper


def _apply_config(ctx: click.Context, params: dict, config_path: str | None) -> dict:
    """Merge config-file values under explicit flags; reject unknown keys.

    Each value is read as its option's command-line text would be (JSON
    numbers and literals by their JSON spelling), so a config value is
    accepted exactly when the same flag would be.
    """
    if config_path is None:
        return params
    try:
        payload = json.loads(Path(config_path).read_text())
    except FileNotFoundError as exc:
        raise InputFormatError(f"config file not found: {config_path}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputFormatError("config file must hold a JSON object")
    unknown = sorted(set(payload) - set(params))
    if unknown:
        raise InputFormatError(f"unknown config keys: {', '.join(unknown)}")
    options = {param.name: param for param in ctx.command.params}
    merged = dict(params)
    for key, value in payload.items():
        if ctx.get_parameter_source(key) == click.core.ParameterSource.COMMANDLINE:
            continue
        text = value if isinstance(value, str) or value is None else json.dumps(value)
        try:
            merged[key] = options[key].process_value(ctx, text)
        except click.BadParameter as exc:
            raise InputFormatError(f"config file: {exc.format_message()}") from exc
    return merged


def _echo_or_write(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)


@click.group()
def main():
    """Nonlinear-squeezing toolkit for quadrature-eigenstate superpositions."""


@main.command("witness")
@click.option("--state", "state_path", required=True, type=click.Path(), help="input state file")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--u", type=float, default=3.0, show_default=True)
@click.option("--phi", type=float, default=0.0, show_default=True)
@click.option("--c", type=float, default=10.0, show_default=True)
@click.option("--k", type=int, default=100, show_default=True)
@click.option("--dim", type=int, default=None, help="expected dimension (checked against the file)")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
@_command
def cmd_witness(ctx, state_path, config_path, u, phi, c, k, dim, out):
    """Witness expectation, Gaussian benchmark, and squeezing in dB."""
    cfg = _apply_config(
        ctx, {"u": u, "phi": phi, "c": c, "k": k, "dim": dim}, config_path
    )
    state, _ = serialize.load_state(state_path)
    if cfg["dim"] is not None and cfg["dim"] != state.dim:
        raise ContractViolationError(
            f"state file dimension {state.dim} does not match requested dim {cfg['dim']}"
        )
    spec = witness.WitnessSpec(u=cfg["u"], phi=cfg["phi"], c=cfg["c"], dim=state.dim, k=cfg["k"])
    report = witness.witness_report(state, spec)
    report["metadata"] = {"config": {**cfg, "dim": state.dim}, "state_file": str(state_path)}
    _echo_or_write(report, out)


def _parse_dims(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputFormatError(f"cannot parse dims {text!r}; use LO:HI or a comma list") from exc


@main.command("ground")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--u", type=float, default=3.0, show_default=True)
@click.option("--phi", type=float, default=0.0, show_default=True)
@click.option("--c", type=float, default=10.0, show_default=True)
@click.option("--k", type=int, default=100, show_default=True)
@click.option("--dims", type=str, default="3:12", show_default=True, help="LO:HI or comma list")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="output directory")
@click.pass_context
@_command
def cmd_ground(ctx, config_path, u, phi, c, k, dims, out_dir):
    """Optimal approximations over a dimension range: state files + index CSV."""
    cfg = _apply_config(ctx, {"u": u, "phi": phi, "c": c, "k": k, "dims": dims}, config_path)
    dim_list = _parse_dims(cfg["dims"])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for dim, report in states.ground_state_sweep(cfg["u"], cfg["phi"], cfg["c"], dim_list, cfg["k"]):
        meta = {
            "config": json.dumps(cfg, sort_keys=True),
            "dim": dim,
            "eigenvalue": f"{report.eigenvalue:.17g}",
            "xi_db": f"{report.xi_db:.17g}",
            "stellar_bound": report.stellar_rank_bound,
            "sector": report.sector,
        }
        serialize.save_state(out / f"state_N{dim}.json", report.state, meta)
        rows.append((dim, report.eigenvalue, report.xi_db, report.stellar_rank_bound))
    serialize.write_csv(out / "index.csv", ("N", "eigenvalue", "xi_db", "stellar_bound"), rows)
    click.echo(f"wrote {len(rows)} states and index.csv to {out}")


@main.command("gate")
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--kind", type=click.Choice(["BS", "QND"], case_sensitive=False), default="BS", show_default=True)
@click.option("--u", type=float, default=3.0, show_default=True)
@click.option("--phi", type=float, default=0.0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
@_command
def cmd_gate(ctx, state_path, config_path, kind, u, phi, out):
    """Virtual interaction fidelity of a resource state."""
    cfg = _apply_config(ctx, {"kind": kind, "u": u, "phi": phi}, config_path)
    state, _ = serialize.load_state(state_path)
    report = gates.gate_report(state, cfg["kind"], cfg["u"], cfg["phi"])
    report["metadata"] = {"config": cfg, "state_file": str(state_path)}
    _echo_or_write(report, out)


@main.command("breed")
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--rounds", type=int, default=2, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="report path (stdout otherwise)")
@click.option("--state-out", type=click.Path(), default=None, help="final state file path")
@click.pass_context
@_command
def cmd_breed(ctx, state_path, config_path, rounds, out, state_out):
    """Breeding cascade: per-round GKP squeezing, success norms, final state."""
    cfg = _apply_config(ctx, {"rounds": rounds}, config_path)
    state, _ = serialize.load_state(state_path)
    run = breeding.breed_protocol(state, cfg["rounds"])
    if state_out is None:
        state_out = str(Path(state_path).with_suffix("")) + f".bred{cfg['rounds']}.json"
    serialize.save_state(state_out, run.final, {"config": json.dumps(cfg, sort_keys=True)})
    report = breeding.breeding_report(run)
    report["final_state_file"] = str(state_out)
    report["metadata"] = {"config": cfg, "state_file": str(state_path)}
    _echo_or_write(report, out)


@main.command("frontier")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--problem", type=click.Choice(["fidelity", "gkp"]), default="fidelity", show_default=True)
@click.option("--u", type=float, default=3.0, show_default=True)
@click.option("--phi", type=float, default=0.0, show_default=True)
@click.option("--c", type=float, default=10.0, show_default=True)
@click.option("--dim", type=int, default=6, show_default=True)
@click.option("--k", type=int, default=100, show_default=True)
@click.option("--pop", type=int, default=200, show_default=True)
@click.option("--gens", type=int, default=500, show_default=True)
@click.option("--rounds", type=int, default=2, show_default=True, help="breeding rounds (gkp problem)")
@click.option("--seed", type=int, required=True, help="mandatory: runs are refused without a seed")
@click.option("--out", required=True, type=click.Path(), help="frontier CSV path")
@click.pass_context
@_command
def cmd_frontier(ctx, config_path, problem, u, phi, c, dim, k, pop, gens, rounds, seed, out):
    """NSGA-II Pareto frontier (CSV + genome sidecar + metadata JSON)."""
    cfg = _apply_config(
        ctx,
        {
            "problem": problem,
            "u": u,
            "phi": phi,
            "c": c,
            "dim": dim,
            "k": k,
            "pop": pop,
            "gens": gens,
            "rounds": rounds,
            "seed": seed,
        },
        config_path,
    )
    spec = witness.WitnessSpec(u=cfg["u"], phi=cfg["phi"], c=cfg["c"], dim=cfg["dim"], k=cfg["k"])
    nsga = pareto.NsgaConfig(seed=cfg["seed"], population=cfg["pop"], generations=cfg["gens"])
    started = time.time()
    result = pareto.evolve(cfg["problem"], spec, nsga, breeding_rounds=cfg["rounds"])
    wall = time.time() - started

    metric = result.points[0].metric_name if result.points else (
        "fidelity" if cfg["problem"] == "fidelity" else "gkp_db"
    )
    serialize.write_csv(
        out,
        ("xi_sqe_db", metric),
        [(p.xi_sqe_db, p.metric_value) for p in result.points],
    )
    genome_path = str(Path(out).with_suffix("")) + ".genomes.csv"
    serialize.write_csv(
        genome_path,
        tuple(f"g{i}" for i in range(2 * cfg["dim"])),
        [tuple(p.genome) for p in result.points],
    )
    meta_path = str(Path(out).with_suffix("")) + ".meta.json"
    serialize.dump_json(
        meta_path,
        {
            "config": cfg,
            "seed": cfg["seed"],
            "wall_time_s": wall,
            "generations_completed": cfg["gens"],
            "evaluations": result.evaluations,
            "front_size": len(result.points),
            "genome_sidecar": genome_path,
        },
    )
    click.echo(f"wrote frontier ({len(result.points)} points) to {out}")


@main.command("wigner")
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--xmax", type=float, default=5.0, show_default=True)
@click.option("--pmax", type=float, default=5.0, show_default=True)
@click.option("--step", type=float, default=0.1, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="long-form CSV: x, p, w")
@click.pass_context
@_command
def cmd_wigner(ctx, state_path, config_path, xmax, pmax, step, out):
    """Wigner function on a symmetric grid, as plot-ready CSV."""
    cfg = _apply_config(ctx, {"xmax": xmax, "pmax": pmax, "step": step}, config_path)
    state, _ = serialize.load_state(state_path)
    if cfg["step"] <= 0 or cfg["xmax"] <= 0 or cfg["pmax"] <= 0:
        raise InputFormatError("xmax, pmax, and step must be positive")
    xs = _symmetric_grid(cfg["xmax"], cfg["step"])
    ps = _symmetric_grid(cfg["pmax"], cfg["step"])
    w = fock.wigner(state, xs, ps)
    rows = [
        (float(xs[i]), float(ps[j]), float(w[i, j]))
        for i in range(xs.size)
        for j in range(ps.size)
    ]
    serialize.write_csv(out, ("x", "p", "w"), rows)
    click.echo(f"wrote {len(rows)} wigner samples to {out}")


def _symmetric_grid(extent: float, step: float) -> np.ndarray:
    half = np.arange(step, extent + step / 2, step)
    return np.concatenate([-half[::-1], [0.0], half])


@main.command("opaccuracy")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--u", type=float, default=3.0, show_default=True)
@click.option("--k", type=int, default=100, show_default=True)
@click.option("--nmax", type=int, default=30, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
@_command
def cmd_opaccuracy(ctx, config_path, u, k, nmax, out):
    """Comb-approximation accuracy table: n, exact, approx, rel_error."""
    cfg = _apply_config(ctx, {"u": u, "k": k, "nmax": nmax}, config_path)
    rows = witness.accuracy_scan(cfg["u"], cfg["k"], cfg["nmax"])
    serialize.write_csv(out, ("n", "exact", "approx", "rel_error"), rows)
    click.echo(f"wrote {len(rows)} accuracy rows to {out}")


if __name__ == "__main__":
    main()
