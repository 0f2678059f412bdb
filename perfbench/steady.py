"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:
    python3 perfbench/steady.py --seeds 101-110 [--workloads single-mode,frontier]

Runs the benchmark once per seed and workload (tracing off, BENCHMARK.json's
run_seconds), and reports per metric the median and the distance between the
first and third quartiles as a share of the median, next to a third of the
metric's bound, and, once another seed range is recorded, the shift of each
median against it. Records the figures in perfbench/STEADY.json under the
seed range, and prints the medians and spreads of the unbounded figures too.
With one seed (--seeds 1-1) it is the one command that prints every
end-to-end figure of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="LO-HI")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    out = run.HERE / "STEADY.json"
    record = json.loads(out.read_text()) if out.is_file() else {}
    if record.get("run_seconds") != bench["run_seconds"]:
        record = {"run_seconds": bench["run_seconds"], "sets": {}}
    workloads = record["sets"].setdefault(args.seeds, {})
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        unbounded: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {proc.stdout[-3000:]}{proc.stderr[-3000:]}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in json.loads(lines[-2].removeprefix("notes "))["unbounded"].items():
                unbounded.setdefault(name, []).append(value)
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals), "iqr_share": spread(vals),
                          "bound": bounds[name], "values": vals}
            # setup_s is not held to the spread check: each of its samples is
            # one sub-second process start, the figure most exposed to host
            # drift. Its spread is still printed and its median shift checked.
            ok = name == "setup_s" or rows[name]["iqr_share"] < bounds[name] / 3
            shift = ""
            first = next((s[workload][name]["median"] for key, s in record["sets"].items()
                          if key != args.seeds and workload in s), None)
            if first is not None:
                change = rows[name]["median"] / first - 1
                ok &= change <= bounds[name]
                shift = f"  median vs first set {change:+.4f}"
            steady &= ok
            print(f"{workload:12s} {name:16s} median {rows[name]['median']:12.6g} {units[name]:3s} "
                  f"iqr/median {rows[name]['iqr_share']:.4f}  bound/3 {bounds[name] / 3:.4f}"
                  f"{shift}{'' if ok else '  WIDE'}", flush=True)
        for name, vals in unbounded.items():
            print(f"{workload:12s} {name:16s} median {statistics.median(vals):12.6g} s   "
                  f"iqr/median {spread(vals):.4f}  (unbounded)", flush=True)
        workloads[workload] = rows
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
