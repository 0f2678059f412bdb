"""Command-line surface: witness, ground, gate, breed, frontier, wigner, opaccuracy.

Every command is a pure function of its flags, config file, and seed.
A `--config` JSON object supplies flag values through click's default map:
an explicit flag wins over the config, the config over the declared
default, and each config value passes the same type check as its flag
(float flags refuse NaN and ±inf). The library reports hold computed values
only; this module echoes the effective configuration (every parameter but
the file paths, as parsed) once into each JSON output: `metadata.config` in
reports and state files, `config` in the frontier .meta.json. The CSV tables
carry none. No output holds a clock reading: reruns are byte-identical.
Exit codes: 0 ok, 2 input error (including a file path that cannot be read
or written, and inputs too large to fit in memory), 3 contract violation.
Output paths are checked before any computation, and nothing is written
until the result is complete, so a run that fails on its inputs or in its
computation leaves no partial output.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import breeding, fock, gates, pareto, serialize, states, witness
from .errors import ContractViolationError, InputFormatError, SqewitError

EXIT_INPUT = 2
EXIT_CONTRACT = 3


def _command(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except SqewitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT if isinstance(exc, InputFormatError) else EXIT_CONTRACT)
        except MemoryError as exc:  # inputs too large for this machine
            click.echo(f"error: out of memory: {exc}", err=True)
            sys.exit(EXIT_INPUT)

    return wrapper


# Parameters that name files: given on the command line, never in a config.
_PATH_PARAMS = frozenset({"config", "state_path", "out", "out_dir", "state_out"})


class _FiniteFloat(click.types.FloatParamType):
    """A float flag that refuses NaN and ±inf."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return number


_FLOAT = _FiniteFloat()


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a JSON config file the command's default map; reject unknown keys.

    Values reach click as their flag's command-line text (non-strings by
    their JSON spelling), so each passes exactly when the same flag would;
    a null leaves the flag at its default.
    """
    if path is None:
        return
    try:
        payload = serialize.read_json(path)
    except InputFormatError as exc:  # raised while click parses, outside _command
        raise click.BadParameter(str(exc)) from exc
    if not isinstance(payload, dict):
        raise click.BadParameter("config file must hold a JSON object")
    unknown = sorted(set(payload) - ({p.name for p in ctx.command.params} - _PATH_PARAMS))
    if unknown:
        raise click.BadParameter(f"unknown config keys: {', '.join(unknown)}")
    ctx.default_map = {
        key: value if isinstance(value, str) else json.dumps(value)
        for key, value in payload.items()
        if value is not None
    }


_config_option = click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    is_eager=True,
    expose_value=False,
    callback=_load_config,
    help="JSON object of flag values, used where a flag is not given",
)


# Flags shared by several commands, each declared once.
_state_option = click.option("--state", "state_path", required=True, type=click.Path(), help="input state file")
_u_option = click.option("--u", type=_FLOAT, default=3.0, show_default=True)
_phi_option = click.option("--phi", type=_FLOAT, default=0.0, show_default=True)
_c_option = click.option("--c", type=_FLOAT, default=10.0, show_default=True)
_k_option = click.option("--k", type=int, default=witness.WitnessSpec.k, show_default=True)


def _witness_options(func):
    """--u, --phi, --c and --k: the witness W(u, phi, c) and its comb order."""
    return _u_option(_phi_option(_c_option(_k_option(func))))


def _effective_config(ctx: click.Context) -> dict:
    """Every parameter value except the file paths, as echoed into outputs."""
    return {key: value for key, value in ctx.params.items() if key not in _PATH_PARAMS}


def _emit(ctx: click.Context, report: dict, out: str | None, state: fock.FockState) -> None:
    """Attach the config, input file and its dimension; write to `out` or stdout."""
    report["metadata"] = {"config": _effective_config(ctx), "state_file": ctx.params["state_path"], "dim": state.dim}
    if out:
        serialize.dump_json(out, report)
    else:
        click.echo(serialize.json_text(report), nl=False)


@click.group()
def main():
    """Nonlinear-squeezing toolkit for quadrature-eigenstate superpositions."""


@main.command("witness")
@_state_option
@_config_option
@_witness_options
@click.option("--dim", type=int, default=None, help="expected dimension (checked against the file)")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
@_command
def cmd_witness(ctx, state_path, u, phi, c, k, dim, out):
    """Witness expectation, Gaussian benchmark, and squeezing in dB."""
    serialize.check_writable(out)
    state = serialize.load_state(state_path)
    if dim is not None and dim != state.dim:
        raise ContractViolationError(
            f"state file dimension {state.dim} does not match requested dim {dim}"
        )
    spec = witness.WitnessSpec(u=u, phi=phi, c=c, dim=state.dim, k=k)
    _emit(ctx, witness.witness_report(state, spec), out, state)


def _parse_dims(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        dims = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputFormatError(f"cannot parse dims {text!r}; use LO:HI or a comma list") from exc
    seen = set()
    for dim in dims:
        if dim in seen:
            raise InputFormatError(f"dims {text!r} name dimension {dim} more than once")
        seen.add(dim)
    return dims


@main.command("ground")
@_config_option
@_witness_options
@click.option("--dims", type=str, default="3:12", show_default=True, help="LO:HI or comma list")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="output directory")
@click.pass_context
@_command
def cmd_ground(ctx, u, phi, c, k, dims, out_dir):
    """Optimal approximations over a dimension range: state files + index CSV."""
    dim_list = _parse_dims(dims)
    out = Path(out_dir)
    # The directory and its missing parents are made after the sweep; check
    # the first of them to be created, or index.csv in an existing one.
    first_created = out / "index.csv"
    while not first_created.parent.exists():
        first_created = first_created.parent
    serialize.check_writable(first_created)
    sweep = states.ground_state_sweep(u, phi, c, dim_list, k)
    # One row per dimension feeds both its index.csv line and its state file's metadata.
    rows = [
        {"eigenvalue": report.eigenvalue, "xi_db": report.xi_db, "stellar_bound": report.stellar_rank_bound}
        for report in sweep
    ]
    serialize.make_dir(out)
    for dim, report, row in zip(dim_list, sweep, rows):
        meta = {"config": _effective_config(ctx), "sector": report.sector, **row}
        serialize.save_state(out / f"state_N{dim}.json", report.state, meta)
    serialize.write_csv(out / "index.csv", ("N", *rows[0]), (dim_list, *zip(*(row.values() for row in rows))))
    click.echo(f"wrote {len(sweep)} states and index.csv to {out}")


@main.command("gate")
@_state_option
@_config_option
@click.option("--kind", type=click.Choice(fock.COUPLER_KINDS, case_sensitive=False), default="BS", show_default=True)
@_u_option
@_phi_option
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
@_command
def cmd_gate(ctx, state_path, kind, u, phi, out):
    """Virtual interaction fidelity of a resource state."""
    serialize.check_writable(out)
    state = serialize.load_state(state_path)
    _emit(ctx, gates.gate_report(state, kind, u, phi), out, state)


@main.command("breed")
@_state_option
@_config_option
@click.option("--rounds", type=int, default=2, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="report path (stdout otherwise)")
@click.option("--state-out", type=click.Path(), default=None, help="final state file path")
@click.pass_context
@_command
def cmd_breed(ctx, state_path, rounds, out, state_out):
    """Breeding cascade: per-round GKP squeezing, success norms, final state."""
    if state_out is None:
        state_out = str(Path(state_path).with_suffix("")) + f".bred{rounds}.json"
    serialize.check_writable(out, state_out)
    state = serialize.load_state(state_path)
    run = breeding.breed_protocol(state, rounds)
    report = breeding.breeding_report(run)
    serialize.save_state(state_out, run.final, {"config": _effective_config(ctx)})
    report["final_state_file"] = str(state_out)
    _emit(ctx, report, out, state)


@main.command("frontier")
@_config_option
@click.option("--problem", type=click.Choice(pareto.PROBLEMS), default="fidelity", show_default=True)
@_witness_options
@click.option("--dim", type=int, default=6, show_default=True)
@click.option("--pop", type=int, default=pareto.NsgaConfig.population, show_default=True)
@click.option("--gens", type=int, default=pareto.NsgaConfig.generations, show_default=True)
@click.option("--rounds", type=int, default=2, show_default=True, help="breeding rounds (gkp problem)")
@click.option("--seed", type=int, required=True, help="mandatory: runs are refused without a seed")
@click.option("--out", required=True, type=click.Path(), help="frontier CSV path")
@click.pass_context
@_command
def cmd_frontier(ctx, problem, u, phi, c, dim, k, pop, gens, rounds, seed, out):
    """NSGA-II Pareto frontier (CSV + genome sidecar + metadata JSON)."""
    genome_path = str(Path(out).with_suffix("")) + ".genomes.csv"
    meta_path = str(Path(out).with_suffix("")) + ".meta.json"
    serialize.check_writable(out, genome_path, meta_path)
    spec = witness.WitnessSpec(u=u, phi=phi, c=c, dim=dim, k=k)
    nsga = pareto.NsgaConfig(seed=seed, population=pop, generations=gens)
    result = pareto.evolve(problem, spec, nsga, breeding_rounds=rounds)

    serialize.write_csv(
        out,
        ("xi_sqe_db", result.metric_name),
        ([p.xi_sqe_db for p in result.points], [p.metric_value for p in result.points]),
    )
    genomes = np.array([p.genome for p in result.points]).reshape(len(result.points), 2 * dim)
    serialize.write_csv(genome_path, tuple(f"g{i}" for i in range(2 * dim)), genomes.T)
    serialize.dump_json(
        meta_path,
        {
            "config": _effective_config(ctx),
            "evaluations": result.evaluations,
            "front_size": len(result.points),
            "genome_sidecar": genome_path,
        },
    )
    click.echo(f"wrote frontier ({len(result.points)} points) to {out}")


@main.command("wigner")
@_state_option
@_config_option
@click.option("--xmax", type=_FLOAT, default=5.0, show_default=True)
@click.option("--pmax", type=_FLOAT, default=5.0, show_default=True)
@click.option("--step", type=_FLOAT, default=0.1, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="long-form CSV: x, p, w")
@_command
def cmd_wigner(state_path, xmax, pmax, step, out):
    """Wigner function on a symmetric grid, as plot-ready CSV."""
    serialize.check_writable(out)
    state = serialize.load_state(state_path)
    if step <= 0 or xmax <= 0 or pmax <= 0:
        raise InputFormatError("xmax, pmax, and step must be positive")
    xs = _symmetric_grid(xmax, step)
    ps = _symmetric_grid(pmax, step)
    w = fock.wigner(state, xs, ps)
    serialize.write_csv(out, ("x", "p", "w"), (np.repeat(xs, ps.size), np.tile(ps, xs.size), w.ravel()))
    click.echo(f"wrote {w.size} wigner samples to {out}")


def _symmetric_grid(extent: float, step: float) -> np.ndarray:
    try:
        half = np.arange(step, extent + step / 2, step)
    except ValueError as exc:  # more points than numpy can index
        raise InputFormatError(f"cannot build a grid up to {extent} in steps of {step}: {exc}") from exc
    return np.concatenate([-half[::-1], [0.0], half])


@main.command("opaccuracy")
@_config_option
@_u_option
@_k_option
@click.option("--nmax", type=int, default=30, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_command
def cmd_opaccuracy(u, k, nmax, out):
    """Comb-approximation accuracy table: n, exact, approx, rel_error."""
    serialize.check_writable(out)
    rows = witness.accuracy_scan(u, k, nmax)
    serialize.write_csv(out, ("n", "exact", "approx", "rel_error"), list(zip(*rows)))
    click.echo(f"wrote {len(rows)} accuracy rows to {out}")


if __name__ == "__main__":
    main()
