import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sqewit import breeding, fock, gates, pareto, serialize, states, witness
from sqewit.cli import main
from sqewit.errors import InputFormatError


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def vacuum_file(tmp_path):
    path = tmp_path / "vacuum.json"
    serialize.save_state(path, fock.vacuum(20))
    return path


class TestWitnessCommand:
    def test_vacuum_nonnegative_db(self, runner, vacuum_file):
        result = runner.invoke(main, ["witness", "--state", str(vacuum_file), "--u", "3", "--c", "10"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["xi_db"] >= 0.0
        assert payload["gaussian_bound"] == pytest.approx(30 / math.pi, abs=1e-9)

    def test_ground_state_fires(self, runner, tmp_path):
        out = tmp_path / "gs"
        assert runner.invoke(main, ["ground", "--dims", "14:14", "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["witness", "--state", str(out / "state_N14.json")])
        payload = json.loads(result.output)
        assert payload["xi_db"] < 0.0

    def test_c_zero_reports_position_part_only(self, runner, vacuum_file):
        result = runner.invoke(main, ["witness", "--state", str(vacuum_file), "--u", "3", "--c", "0"])
        payload = json.loads(result.output)
        assert payload["expectation"] == pytest.approx(72.75, abs=1e-9)

    def test_malformed_file_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 3}')
        assert runner.invoke(main, ["witness", "--state", str(bad)]).exit_code == 2

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_amplitude_exit_2(self, runner, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "amplitudes": [[%s, 0.0], [1.0, 0.0]]}' % bad)
        result = runner.invoke(main, ["witness", "--state", str(path)])
        assert result.exit_code == 2
        assert "finite" in result.stderr

    @pytest.mark.parametrize("amplitudes", [["12"], [["1.0", "0"]], [[True, False]], [[1.0]], [[1.0, 0.0, 0.0]]])
    def test_amplitude_not_a_number_pair_exit_2(self, runner, tmp_path, amplitudes):
        # ["12"] loaded as (1+2i)/√5, and the string and boolean pairs as |0>.
        path, out = tmp_path / "bad.json", tmp_path / "report.json"
        path.write_text(json.dumps({"dim": 1, "amplitudes": amplitudes}))
        result = runner.invoke(main, ["witness", "--state", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "pairs of JSON numbers" in result.stderr
        assert not out.exists()

    def test_dim_mismatch_exit_3(self, runner, vacuum_file):
        assert (
            runner.invoke(main, ["witness", "--state", str(vacuum_file), "--dim", "7"]).exit_code == 3
        )

    @pytest.mark.parametrize("dim", [2.7, True, "2", 2.0, 0, None])
    def test_non_integer_dim_exit_2(self, runner, tmp_path, dim):
        # Each used to load through int(dim): 2.7, "2" and 2.0 as two levels,
        # true as one.
        path = tmp_path / "bad.json"
        levels = max(int(dim or 0), 1)
        amplitudes = [[1.0, 0.0]] + [[0.0, 0.0]] * (levels - 1)
        path.write_text(json.dumps({"dim": dim, "amplitudes": amplitudes}))
        result = runner.invoke(main, ["witness", "--state", str(path)])
        assert result.exit_code == 2, result.output
        assert "dim must be a JSON integer" in result.stderr


@pytest.mark.parametrize("amplitudes", [["12"], [["1.0", "0"]], [[True, False]], [[1, None]], [1.0], [[1.0]]])
def test_state_from_dict_refuses_non_number_pairs(amplitudes):
    with pytest.raises(InputFormatError, match="pairs of JSON numbers"):
        serialize.state_from_dict({"dim": 1, "amplitudes": amplitudes})


def test_state_from_dict_refuses_metadata_that_is_not_an_object():
    with pytest.raises(InputFormatError, match="metadata must be an object"):
        serialize.state_from_dict({"dim": 1, "amplitudes": [[1.0, 0.0]], "metadata": [1]})


def test_state_from_dict_takes_integer_and_float_pairs():
    state = serialize.state_from_dict({"dim": 2, "amplitudes": [[0, 1], [0.0, 0.0]]})
    assert np.array_equal(state.amps, [1j, 0.0])
    with pytest.raises(InputFormatError, match="finite"):
        serialize.state_from_dict({"dim": 1, "amplitudes": [[10**400, 0]]})


@pytest.mark.parametrize("unreadable", ["state_not_utf8", "state_is_directory", "config_not_utf8"])
def test_unreadable_input_exit_2(runner, vacuum_file, tmp_path, unreadable):
    # Each ended in a UnicodeDecodeError or IsADirectoryError traceback (exit 1).
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b'{"dim": 1, "amplitudes": [[1.0, 0.0]], "metadata": {"k": "\xff"}}')
    args = {
        "state_not_utf8": ["--state", str(garbled)],
        "state_is_directory": ["--state", str(tmp_path)],
        "config_not_utf8": ["--state", str(vacuum_file), "--config", str(garbled)],
    }[unreadable]
    result = runner.invoke(main, ["witness"] + args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output.lower()


@pytest.mark.parametrize(
    "command",
    ["witness_out_is_directory", "ground_out_is_file", "opaccuracy", "gate", "frontier", "wigner", "breed_state_out"],
)
def test_unwritable_output_exit_2(runner, vacuum_file, tmp_path, command):
    # Each ended in an IsADirectoryError, FileExistsError or FileNotFoundError
    # traceback (exit 1).
    missing = str(tmp_path / "missing_dir" / "out")
    state = ["--state", str(vacuum_file)]
    args = {
        "witness_out_is_directory": ["witness", *state, "--out", str(tmp_path)],
        "ground_out_is_file": ["ground", "--dims", "3", "--out", str(vacuum_file)],
        "opaccuracy": ["opaccuracy", "--nmax", "2", "--out", missing],
        "gate": ["gate", *state, "--out", missing],
        "frontier": ["frontier", "--seed", "1", "--dim", "2", "--pop", "4", "--gens", "0", "--out", missing],
        "wigner": ["wigner", *state, "--step", "1", "--out", missing],
        "breed_state_out": ["breed", *state, "--rounds", "0", "--state-out", missing],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.stderr


def _listing(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize(
    "command, compute",
    [
        ("witness", (witness, "witness_report")),
        ("witness_out_is_directory", (witness, "witness_report")),
        ("gate", (gates, "gate_report")),
        ("breed", (breeding, "breed_protocol")),
        ("frontier", (pareto, "evolve")),
        ("wigner", (fock, "wigner")),
        ("opaccuracy", (witness, "accuracy_scan")),
        ("breed_report_is_state_out", (breeding, "breed_protocol")),
    ],
)
def test_unwritable_output_fails_before_computing(runner, vacuum_file, tmp_path, monkeypatch, command, compute):
    # Each computed its result (frontier ran every generation) before the
    # write failed; breed had already written its state file, and a report
    # given the state file's path replaced the bred state.
    def computed(*args, **kwargs):
        raise AssertionError("computed before checking the output path")

    monkeypatch.setattr(*compute, computed)
    missing = str(tmp_path / "missing_dir" / "out")
    state = ["--state", str(vacuum_file)]
    args = {
        "witness": ["witness", *state, "--out", missing],
        "witness_out_is_directory": ["witness", *state, "--out", str(tmp_path)],
        "gate": ["gate", *state, "--out", missing],
        "breed": ["breed", *state, "--rounds", "0", "--state-out", str(tmp_path / "s.json"), "--out", missing],
        "breed_report_is_state_out": [
            "breed", *state, "--rounds", "0", "--state-out", str(tmp_path / "s.json"), "--out", str(tmp_path / "s.json"),
        ],
        "frontier": ["frontier", "--seed", "1", "--dim", "2", "--pop", "4", "--gens", "1", "--out", missing],
        "wigner": ["wigner", *state, "--step", "1", "--out", missing],
        "opaccuracy": ["opaccuracy", "--nmax", "2", "--out", missing],
    }[command]
    before = _listing(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "error:" in result.stderr
    assert _listing(tmp_path) == before


def test_failed_ground_sweep_leaves_no_directory(runner, tmp_path):
    # The output directory was created before the sweep raised.
    before = _listing(tmp_path)
    result = runner.invoke(main, ["ground", "--dims", "1", "--phi", str(math.pi), "--out", str(tmp_path / "g8")])
    assert result.exit_code == 3, result.output
    assert _listing(tmp_path) == before


def test_unconverged_gaussian_benchmark_exits_3_and_writes_nothing(runner, tmp_path, monkeypatch):
    # The breed report needs the Gaussian benchmark; when no refinement
    # converges, neither the report nor the final state file is written.
    def never_converges(x0, *args, **kwargs):
        (value,) = yield [x0]
        return value, np.array(x0), False

    state = tmp_path / "vacuum.json"
    serialize.save_state(state, fock.vacuum(6))
    monkeypatch.setattr(breeding, "_nelder_mead", never_converges)
    breeding.gkp_witness.cache_clear()
    try:
        before = _listing(tmp_path)
        args = ["breed", "--state", str(state), "--rounds", "1"]
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "r.json"), "--state-out", str(tmp_path / "s.json")])
    finally:
        breeding.gkp_witness.cache_clear()
    assert result.exit_code == 3, result.output
    assert "converged" in result.stderr
    assert _listing(tmp_path) == before


def test_ground_creates_missing_parents_after_the_sweep(runner, tmp_path):
    out = tmp_path / "runs" / "ground"
    assert runner.invoke(main, ["ground", "--dims", "3", "--out", str(out)]).exit_code == 0
    assert _listing(tmp_path) == ["runs", "runs/ground", "runs/ground/index.csv", "runs/ground/state_N3.json"]
    for bad_out in (out / "index.csv", out / "index.csv" / "sub"):
        result = runner.invoke(main, ["ground", "--dims", "3", "--out", str(bad_out)])
        assert result.exit_code == 2 and "not a writable directory" in result.stderr


class TestGroundCommand:
    def test_large_u_gaussian_bound_is_not_refused(self, runner, tmp_path):
        # Exited 3 when the Gaussian bound's bracket probes refused u = 6, c = 10.
        result = runner.invoke(main, ["ground", "--u", "6", "--dims", "10:10", "--out", str(tmp_path / "g")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "g" / "state_N10.json").is_file()

    def test_sweep_output(self, runner, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["ground", "--dims", "3:12", "--out", str(out)])
        assert result.exit_code == 0
        files = sorted(out.glob("state_N*.json"))
        assert len(files) == 10
        rows = (out / "index.csv").read_text().strip().splitlines()
        assert rows[0] == "N,eigenvalue,xi_db,stellar_bound"
        eigs = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a + 1e-10 for a, b in zip(eigs, eigs[1:]))
        n4 = [r for r in rows[1:] if r.startswith("4,")][0]
        assert n4.split(",")[3] == "2"

    def test_empty_parity_sector_exit_3(self, runner, tmp_path):
        # A 1-level space has no odd sector; the 0 x 0 eigensolve ended in a
        # ValueError traceback (exit 1).
        result = runner.invoke(main, ["ground", "--dims", "1", "--phi", str(math.pi), "--out", str(tmp_path / "d")])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr and "odd sector" in result.stderr

    def test_repeated_dimension_exit_2(self, runner, tmp_path, monkeypatch):
        # N = 8 was solved and written twice, with two identical index rows.
        # A 20 001-entry list repeating its first entry at the end took
        # seconds to refuse while each entry was searched for among those before it.
        monkeypatch.setattr(states, "ground_state_sweep", None)
        long_list = ",".join(map(str, [*range(1, 20_001), 1]))
        for dims, named in (("8,8", "dimension 8 "), ("3,5,5,3", "dimension 5 "), (long_list, "dimension 1 ")):
            result = runner.invoke(main, ["ground", "--dims", dims, "--out", str(tmp_path / "d")])
            assert result.exit_code == 2, result.output
            assert named in result.stderr
            assert _listing(tmp_path) == []

    def test_state_files_hold_json_metadata(self, runner, tmp_path):
        # Metadata values were strings: the config JSON inside a string, the
        # floats as "%.17g" text, and a copy of dim.
        out = tmp_path / "sweep"
        args = ["ground", "--dims", "5:7", "--u", "2.5", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        config = {"u": 2.5, "phi": 0.0, "c": 10.0, "k": 100, "dims": "5:7"}
        rows = (out / "index.csv").read_text().splitlines()[1:]
        for row in rows:
            n, eigenvalue, xi_db, stellar_bound = row.split(",")
            text = (out / f"state_N{n}.json").read_text()
            assert text == serialize.json_text(json.loads(text))
            assert serialize.load_state(out / f"state_N{n}.json").dim == int(n)
            meta = json.loads(text)["metadata"]
            assert meta["config"] == config
            assert type(meta["eigenvalue"]) is float and meta["eigenvalue"] == float(eigenvalue)
            assert type(meta["xi_db"]) is float and meta["xi_db"] == float(xi_db)
            assert meta["stellar_bound"] == int(stellar_bound)
            assert "dim" not in meta

    def test_comb_cut_warning_names_roadmap_item_2(self, runner, tmp_path):
        # From 212 levels at u = 3 the comb's cut drops the m = 1 harmonic.
        # A child process prints the warning to stderr, once, and exits 0;
        # the files match an in-process run, so the warning moves no byte.
        args = ["ground", "--u", "3", "--dims", "240", "--out"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sqewit.cli; sqewit.cli.main()"
        command = [sys.executable, "-c", code, *args, "a"]
        child = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        assert child.stderr.count("RuntimeWarning") == child.stderr.count("(ROADMAP item 2)") == 1, child.stderr
        assert "dim = 240 drops non-negligible harmonics m = [1]" in child.stderr
        with pytest.warns(RuntimeWarning, match=r"u = 3\.0, dim = 240 drops .* \(ROADMAP item 2\)"):
            assert runner.invoke(main, [*args, str(tmp_path / "b")]).exit_code == 0
        for name in ("state_N240.json", "index.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rerun_bitwise_identical(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert runner.invoke(main, ["ground", "--dims", "5:7", "--out", str(out)]).exit_code == 0
        for name in ("state_N5.json", "state_N6.json", "state_N7.json", "index.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestGateCommand:
    def test_report(self, runner, vacuum_file):
        result = runner.invoke(main, ["gate", "--state", str(vacuum_file), "--kind", "BS", "--u", "2"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert 0.0 <= payload["fidelity"] <= 1.0
        assert payload["success_norm"] > 0
        assert set(payload) == {"fidelity", "success_norm", "metadata"}
        config = {"kind": "BS", "u": 2.0, "phi": 0.0}
        assert payload["metadata"] == {"config": config, "state_file": str(vacuum_file), "dim": 20}

    def test_seventy_levels_gate_and_breed(self, runner, tmp_path):
        # Two-mode work has no dimension cap: both gates and a breeding
        # round run on a 70-level state.
        big = tmp_path / "big.json"
        serialize.save_state(big, fock.vacuum(70))
        for args in (["gate", "--kind", "BS"], ["gate", "--kind", "QND"], ["breed", "--rounds", "1"]):
            result = runner.invoke(main, args + ["--state", str(big)])
            assert result.exit_code == 0, (args, result.output)


class TestBreedCommand:
    def test_zero_rounds_preserves_state(self, runner, tmp_path, vacuum_file):
        report_path = tmp_path / "report.json"
        out_state = tmp_path / "bred.json"
        result = runner.invoke(
            main,
            [
                "breed",
                "--state",
                str(vacuum_file),
                "--rounds",
                "0",
                "--out",
                str(report_path),
                "--state-out",
                str(out_state),
            ],
        )
        assert result.exit_code == 0
        original = serialize.load_state(vacuum_file)
        bred = serialize.load_state(out_state)
        assert np.array_equal(original.amps, bred.amps)
        report = json.loads(report_path.read_text())
        assert report["per_round_gkp_db"] == []

    def test_two_rounds_report(self, runner, tmp_path):
        from sqewit import states

        cat_path = tmp_path / "cat.json"
        cat = states.squeezed_cat(states.CatSpec(u=2 * math.sqrt(math.pi), r=1.2, phi=0.0, dim=60))
        serialize.save_state(cat_path, cat)
        result = runner.invoke(main, ["breed", "--state", str(cat_path), "--rounds", "2"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert len(report["per_round_gkp_db"]) == 2
        assert report["per_round_gkp_db"][-1] < report["input_gkp_db"]
        assert Path(report["final_state_file"]).exists()

    def test_annihilated_round_exit_3_and_writes_nothing(self, runner, tmp_path):
        # |1> in two levels is annihilated by its first round (the s = 2
        # sector holds |1,1> alone and <p=0|1> = 0): neither the report nor
        # the bred state file (by default one.bred1.json) is written.
        serialize.save_state(tmp_path / "one.json", fock.basis_state(2, 1))
        args = ["breed", "--state", str(tmp_path / "one.json"), "--rounds", "1", "--out", str(tmp_path / "r.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: p = 0 projection annihilated the state (norm 0.000e+00)\n"
        assert _listing(tmp_path) == ["one.json"]


class TestFrontierCommand:
    def test_requires_seed(self, runner, tmp_path):
        result = runner.invoke(main, ["frontier", "--out", str(tmp_path / "f.csv")])
        assert result.exit_code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gens": 0}))
        result = runner.invoke(main, ["frontier", "--config", str(cfg), "--out", str(tmp_path / "f.csv")])
        assert result.exit_code == 2

    def test_config_seed_counts(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "dim": 2, "pop": 4, "gens": 1}))
        result = runner.invoke(main, ["frontier", "--config", str(cfg), "--out", str(tmp_path / "f.csv")])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "f.meta.json").read_text())["config"]["seed"] == 3

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seed", str(2**64)], ["--seed", "1", "--rounds", "-1"]])
    def test_out_of_range_search_inputs_exit_3(self, runner, tmp_path, flags):
        args = ["frontier", "--dim", "2", "--pop", "4", "--gens", "0", "--out", str(tmp_path / "f.csv")]
        result = runner.invoke(main, args + flags)
        assert result.exit_code == 3, result.output
        assert not (tmp_path / "f.csv").exists()

    def test_deterministic_rerun(self, runner, tmp_path):
        args = ["frontier", "--dim", "6", "--pop", "20", "--gens", "5", "--seed", "1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.genomes.csv").read_bytes() == (tmp_path / "b.genomes.csv").read_bytes()
        meta = json.loads((tmp_path / "a.meta.json").read_text())
        assert set(meta) == {"config", "evaluations", "front_size", "genome_sidecar"}
        assert meta["config"]["seed"] == 1
        assert meta["config"]["gens"] == 5

    def test_csv_header_matches_problem(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        args = [
            "frontier", "--problem", "gkp", "--dim", "6", "--pop", "16",
            "--gens", "3", "--seed", "2", "--out", str(out),
        ]
        assert runner.invoke(main, args).exit_code == 0
        assert out.read_text().splitlines()[0] == "xi_sqe_db,gkp_db"


class TestWignerCommand:
    def test_vacuum_center_cell(self, runner, vacuum_file, tmp_path):
        out = tmp_path / "w.csv"
        result = runner.invoke(
            main,
            ["wigner", "--state", str(vacuum_file), "--xmax", "5", "--pmax", "5", "--step", "0.1", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = out.read_text().strip().splitlines()[1:]
        center = [r for r in rows if r.startswith("0,0,")]
        assert len(center) == 1
        assert float(center[0].split(",")[2]) == pytest.approx(1 / math.pi, abs=1e-6)

    def test_grid_too_large_to_build_exit_2(self, runner, vacuum_file, tmp_path):
        # 6e300 grid points per axis: np.arange refused them with a
        # ValueError traceback (exit 1). No allocation is attempted.
        out = tmp_path / "w.csv"
        result = runner.invoke(
            main, ["wigner", "--state", str(vacuum_file), "--xmax", "6", "--step", "1e-300", "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: cannot build a grid")
        assert len(result.stderr.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [vacuum_file]

    @pytest.mark.parametrize(
        "args",
        [
            ["wigner", "--state", "vacuum.json", "--step", "1", "--out", "w.csv"],
            ["ground", "--dims", "1000000", "--out", "g"],
            ["opaccuracy", "--nmax", "1000000", "--out", "a.csv"],
            ["frontier", "--dim", "1000000", "--pop", "2", "--gens", "0", "--seed", "1", "--out", "f.csv"],
        ],
        ids=["wigner", "ground", "opaccuracy", "frontier"],
    )
    def test_grid_too_large_for_memory_exit_2(self, runner, vacuum_file, tmp_path, monkeypatch, args):
        # Each ended in an _ArrayMemoryError traceback (exit 1). A Wigner grid
        # numpy can build but not evaluate (--step 0.0003) is simulated; the
        # other three ask numpy for 14.6 TiB at once. The address-space cap
        # makes that request fail up front on a host that overcommits memory
        # too, instead of being granted and filled.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.9 GiB")

        monkeypatch.setattr(fock, "wigner", out_of_memory)
        monkeypatch.chdir(tmp_path)
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 2**40 if hard == resource.RLIM_INFINITY else min(hard, 2**40)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            result = runner.invoke(main, args)
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: out of memory: ")
        assert len(result.stderr.splitlines()) == 1
        assert _listing(tmp_path) == ["vacuum.json"]

    def test_overflow_exit_3_and_no_file(self, runner, tmp_path):
        amps = np.random.default_rng(0).normal(size=300)
        state_file = tmp_path / "big.json"
        serialize.save_state(state_file, fock.FockState(amps / np.linalg.norm(amps)))
        out = tmp_path / "w.csv"
        args = ["wigner", "--state", str(state_file), "--xmax", "30", "--pmax", "30", "--step", "15", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith("error: Wigner sum of 300 levels overflows float64 from radius 30")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()


class TestOpaccuracyCommand:
    def test_table_matches_library(self, runner, tmp_path):
        out = tmp_path / "acc.csv"
        result = runner.invoke(main, ["opaccuracy", "--u", "3", "--k", "100", "--nmax", "5", "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "n,exact,approx,rel_error"
        assert len(rows) == 7
        lib = witness.accuracy_scan(3.0, 100, 5)
        got = float(rows[1].split(",")[1])
        assert got == pytest.approx(lib[0].exact, rel=1e-15)

    def test_negative_depth_is_refused_by_its_name(self, runner, tmp_path):
        # This named the comb's dimension: "dim must be ... >= 1, got 0".
        result = runner.invoke(main, ["opaccuracy", "--nmax", "-1", "--out", str(tmp_path / "acc.csv")])
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith("error: n_max must be")
        assert "dim" not in result.stderr
        assert _listing(tmp_path) == []

    @pytest.mark.filterwarnings("ignore:invalid value encountered in:RuntimeWarning")
    def test_deep_scan_exact_column_finite(self, runner, tmp_path):
        # --nmax 515 builds the comb at 516 levels, where the large-|s|
        # harmonics overflow to non-finite approximations from n = 183 on
        # (ROADMAP item 2), and the build drops m = 1, 2: the scan refuses it
        # by name and writes nothing. The exact column stays finite at every
        # level. Builds past row 1030, where the largest binomials overflow, are
        # `test_fock.py::test_displacement_exact_diagonal_past_binomial_overflow`.
        out = tmp_path / "acc.csv"
        with pytest.warns(RuntimeWarning, match=r"u = 3\.0, dim = 516 drops non-negligible harmonics m = \[1, 2\]"):
            result = runner.invoke(main, ["opaccuracy", "--nmax", "515", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: momentum comb at u = 3.0, N = 516 has non-finite entries (ROADMAP item 2)\n"
        assert _listing(tmp_path) == []
        assert np.all(np.isfinite(witness.comb_diagonal_exact(3.0, 515)))


@pytest.mark.filterwarnings("ignore:invalid value encountered in:RuntimeWarning")
@pytest.mark.parametrize(
    "args",
    [
        ["ground", "--u", "3", "--dims", "241", "--out", "g"],
        ["witness", "--u", "3", "--state", "v.json", "--out", "w.json"],
        ["opaccuracy", "--u", "3", "--nmax", "240", "--out", "acc.csv"],
    ],
    ids=["ground", "witness", "opaccuracy"],
)
def test_non_finite_comb_exit_3_and_writes_nothing(runner, tmp_path, monkeypatch, args):
    # At u = 3 the comb overflows to non-finite entries from 241 levels on
    # (ROADMAP item 2). The ground sweep read that as "matrix is not Hermitian
    # within tolerance (defect nan)", and the scan wrote nan cells for
    # n = 227-240; every command that reads the comb refuses it by name.
    monkeypatch.chdir(tmp_path)
    serialize.save_state("v.json", fock.vacuum(241))
    with pytest.warns(RuntimeWarning, match=r"u = 3\.0, dim = 241 drops non-negligible harmonics m = \[1\]"):
        result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert result.stderr == "error: momentum comb at u = 3.0, N = 241 has non-finite entries (ROADMAP item 2)\n"
    assert _listing(tmp_path) == ["v.json"]


class TestConfigMerge:
    def test_config_fills_unset_flags(self, runner, vacuum_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u": 2.0, "c": 5.0}))
        result = runner.invoke(
            main,
            ["witness", "--state", str(vacuum_file), "--config", str(cfg), "--c", "7.0"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["metadata"]["config"]["u"] == 2.0  # from config
        assert payload["metadata"]["config"]["c"] == 7.0  # flag wins

    def test_unknown_config_key_rejected(self, runner, vacuum_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        result = runner.invoke(main, ["witness", "--state", str(vacuum_file), "--config", str(cfg)])
        assert result.exit_code == 2

    def test_null_config_value_leaves_the_default(self, runner, vacuum_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u": None, "dim": None}))
        by_config = runner.invoke(main, ["witness", "--state", str(vacuum_file), "--config", str(cfg)])
        assert by_config.exit_code == 0, by_config.output
        assert by_config.output == runner.invoke(main, ["witness", "--state", str(vacuum_file)]).output

    @pytest.mark.parametrize("key", ["state", "state_path", "out", "config"])
    def test_file_path_config_key_rejected(self, runner, vacuum_file, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "x.json"}))
        result = runner.invoke(main, ["witness", "--state", str(vacuum_file), "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"unknown config keys: {key}" in result.output

    @pytest.mark.parametrize(
        "command, key, value, code",
        [("frontier", "pop", "x", 2), ("gate", "u", "three", 2), ("ground", "dims", 5, 0)],
    )
    def test_config_value_fares_as_its_flag(self, runner, vacuum_file, tmp_path, command, key, value, code):
        # Each of these raised a TypeError traceback (exit 1) before config
        # values went through their option's click type.
        def run(tag, extra):
            args = {
                "frontier": ["frontier", "--seed", "1", "--gens", "0", "--out", str(tmp_path / f"{tag}.csv")],
                "gate": ["gate", "--state", str(vacuum_file)],
                "ground": ["ground", "--out", str(tmp_path / tag)],
            }[command]
            return runner.invoke(main, args + extra)

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        by_config = run("config", ["--config", str(cfg)])
        by_flag = run("flag", [f"--{key}", str(value)])
        assert by_config.exit_code == by_flag.exit_code == code, by_config.output
        if code == 0:
            assert (tmp_path / "config" / "index.csv").read_text() == (tmp_path / "flag" / "index.csv").read_text()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("witness", {"u": 2.5, "phi": 0.3, "c": 7, "k": 50, "dim": 20}),
            ("ground", {"u": 2.5, "phi": 0.3, "c": 7, "k": 50, "dims": "5,7"}),
            ("gate", {"kind": "qnd", "u": 2, "phi": 0.1}),
            ("breed", {"rounds": 1}),
            ("frontier", {"problem": "gkp", "u": 2.5, "c": 8, "dim": 3, "k": 60, "pop": 6, "gens": 2, "rounds": 1, "seed": 5}),
        ],
    )
    def test_config_run_writes_the_flag_run_bytes(self, runner, vacuum_file, tmp_path, command, config):
        state, t = str(vacuum_file), str(tmp_path)
        args, outputs = {
            "witness": (["--state", state, "--out", f"{t}/r.json"], ["r.json"]),
            "ground": (["--out", f"{t}/g"], ["g/state_N5.json", "g/state_N7.json", "g/index.csv"]),
            "gate": (["--state", state, "--out", f"{t}/r.json"], ["r.json"]),
            "breed": (["--state", state, "--out", f"{t}/r.json", "--state-out", f"{t}/s.json"], ["r.json", "s.json"]),
            "frontier": (["--out", f"{t}/f.csv"], ["f.csv", "f.genomes.csv", "f.meta.json"]),
        }[command]
        args = [command] + args

        def written():
            return {name: (tmp_path / name).read_bytes() for name in outputs}

        flags = [f for key, value in config.items() for f in (f"--{key}", str(value))]
        assert runner.invoke(main, args + flags).exit_code == 0
        by_flag = written()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, args + ["--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert written() == by_flag


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "command, key, value",
    [
        ("witness", "u", math.nan),
        ("gate", "phi", math.inf),
        ("frontier", "c", math.nan),
        ("opaccuracy", "u", math.nan),
        ("wigner", "xmax", math.nan),
        ("wigner", "step", math.inf),
        ("wigner", "pmax", -math.inf),
    ],
)
def test_non_finite_float_exit_2(runner, vacuum_file, tmp_path, via, command, key, value):
    # Rejected at parsing: a NaN u would otherwise write "expectation": NaN,
    # which is not JSON, and a NaN wigner extent would raise inside numpy.
    args = {
        "witness": ["witness", "--state", str(vacuum_file)],
        "gate": ["gate", "--state", str(vacuum_file)],
        "frontier": ["frontier", "--seed", "1", "--dim", "2", "--pop", "4", "--gens", "0"],
        "opaccuracy": ["opaccuracy", "--nmax", "2"],
        "wigner": ["wigner", "--state", str(vacuum_file)],
    }[command] + ["--out", str(tmp_path / "out.csv")]
    if via == "flag":
        args += [f"--{key}", str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args += ["--config", str(cfg)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "finite" in result.output
    assert not (tmp_path / "out.csv").exists()


# Every option of every command, as declared before the shared option
# declarations: name -> (flags, click type class, choices, default or None,
# required). Sharing a declaration must not drop, rename or retype a flag.
_PATH = ("Path", (), None)
_NUM = "_FiniteFloat", ()
CLI_SURFACE = {
    "witness": {
        "state_path": (["--state"], *_PATH, True), "config": (["--config"], *_PATH, False),
        "u": (["--u"], *_NUM, 3.0, False), "phi": (["--phi"], *_NUM, 0.0, False),
        "c": (["--c"], *_NUM, 10.0, False), "k": (["--k"], "IntParamType", (), 100, False),
        "dim": (["--dim"], "IntParamType", (), None, False), "out": (["--out"], *_PATH, False),
    },
    "ground": {
        "config": (["--config"], *_PATH, False),
        "u": (["--u"], *_NUM, 3.0, False), "phi": (["--phi"], *_NUM, 0.0, False),
        "c": (["--c"], *_NUM, 10.0, False), "k": (["--k"], "IntParamType", (), 100, False),
        "dims": (["--dims"], "StringParamType", (), "3:12", False), "out_dir": (["--out"], *_PATH, True),
    },
    "gate": {
        "state_path": (["--state"], *_PATH, True), "config": (["--config"], *_PATH, False),
        "kind": (["--kind"], "Choice", ("BS", "QND"), "BS", False),
        "u": (["--u"], *_NUM, 3.0, False), "phi": (["--phi"], *_NUM, 0.0, False),
        "out": (["--out"], *_PATH, False),
    },
    "breed": {
        "state_path": (["--state"], *_PATH, True), "config": (["--config"], *_PATH, False),
        "rounds": (["--rounds"], "IntParamType", (), 2, False),
        "out": (["--out"], *_PATH, False), "state_out": (["--state-out"], *_PATH, False),
    },
    "frontier": {
        "config": (["--config"], *_PATH, False),
        "problem": (["--problem"], "Choice", ("fidelity", "gkp"), "fidelity", False),
        "u": (["--u"], *_NUM, 3.0, False), "phi": (["--phi"], *_NUM, 0.0, False),
        "c": (["--c"], *_NUM, 10.0, False), "dim": (["--dim"], "IntParamType", (), 6, False),
        "k": (["--k"], "IntParamType", (), 100, False), "pop": (["--pop"], "IntParamType", (), 200, False),
        "gens": (["--gens"], "IntParamType", (), 500, False), "rounds": (["--rounds"], "IntParamType", (), 2, False),
        "seed": (["--seed"], "IntParamType", (), None, True), "out": (["--out"], *_PATH, True),
    },
    "wigner": {
        "state_path": (["--state"], *_PATH, True), "config": (["--config"], *_PATH, False),
        "xmax": (["--xmax"], *_NUM, 5.0, False), "pmax": (["--pmax"], *_NUM, 5.0, False),
        "step": (["--step"], *_NUM, 0.1, False), "out": (["--out"], *_PATH, True),
    },
    "opaccuracy": {
        "config": (["--config"], *_PATH, False),
        "u": (["--u"], *_NUM, 3.0, False), "k": (["--k"], "IntParamType", (), 100, False),
        "nmax": (["--nmax"], "IntParamType", (), 30, False), "out": (["--out"], *_PATH, True),
    },
}


def test_cli_surface_unchanged():
    def described(param):
        default = param.default if isinstance(param.default, (int, float, str)) else None
        choices = tuple(getattr(param.type, "choices", ()))
        return (param.opts, type(param.type).__name__, choices, default, param.required)

    got = {name: {p.name: described(p) for p in cmd.params} for name, cmd in main.commands.items()}
    assert got == CLI_SURFACE
    options = {(name, p.name): p for name, cmd in main.commands.items() for p in cmd.params}
    assert options["gate", "kind"].type.case_sensitive is False
    assert options["frontier", "problem"].type.case_sensitive is True


# Three comb-building commands run in one child process: a ground sweep, a
# witness job and a short frontier.
_RUNTIME_JOBS = (
    ["ground", "--dims", "40,62", "--out", "g"],
    ["witness", "--state", "g/state_N40.json"],
    ["frontier", "--seed", "1", "--dim", "4", "--pop", "12", "--gens", "2", "--out", "f.csv"],
)


def _run_jobs(cwd, block_scipy):
    """Run _RUNTIME_JOBS through CliRunner in a child process in cwd.

    Returns each job's (exit code, output), the scipy modules loaded at the
    end, and the bytes of every file written. With block_scipy, importing
    scipy raises ImportError.
    """
    code = (
        "import json, sys\n"
        + ("sys.modules['scipy'] = None\n" if block_scipy else "")
        + "import sqewit.cli\n"
        "from click.testing import CliRunner\n"
        f"results = [CliRunner().invoke(sqewit.cli.main, args) for args in {_RUNTIME_JOBS!r}]\n"
        "print(json.dumps({'jobs': [[r.exit_code, r.output] for r in results],"
        " 'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True)
    run = json.loads(result.stdout)
    run["files"] = {path.relative_to(cwd).as_posix(): path.read_bytes() for path in cwd.rglob("*") if path.is_file()}
    return run


@pytest.fixture(scope="module")
def runtime_run(tmp_path_factory):
    return _run_jobs(tmp_path_factory.mktemp("scipy_loaded"), block_scipy=False)


def test_no_scipy_at_runtime(runtime_run):
    # Stricter than "only scipy.special": no scipy module at all, also none
    # imported lazily inside a function while the jobs ran.
    assert [code for code, _ in runtime_run["jobs"]] == [0, 0, 0]
    assert runtime_run["scipy"] == []


def test_runs_with_scipy_blocked(runtime_run, tmp_path):
    blocked = _run_jobs(tmp_path, block_scipy=True)
    assert [code for code, _ in blocked["jobs"]] == [0, 0, 0]
    assert blocked["jobs"] == runtime_run["jobs"]
    assert blocked["files"] == runtime_run["files"]
