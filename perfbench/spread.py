"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]

Runs ``run.py`` once per workload and seed, one run at a time, with the
``command`` and ``run_seconds`` of BENCHMARK.json.  For each metric it prints
the median and the quartile spread (Q3 - Q1) / median of the runs, as
``statistics.quantiles(values, n=4)`` gives the quartiles, beside the
metric's bound, and flags a spread above a third of the bound.  For the
times that ``run.py`` scales to reference seconds it also prints the spread
of the same runs' wall-clock figures.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(proc.stdout)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in lines:
                if line.startswith("wall_clock "):
                    for name, value in json.loads(line.split(" ", 1)[1]).items():
                        wall.setdefault(name, []).append(value)
        print(f"{workload}: {args.runs} runs")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            median, spr = spread(vals)
            flag = "" if spr < metric["bound"] / 3 else "  ABOVE bound/3"
            wall_spr = (f"  (wall-clock spread {spread(wall[metric['name']])[1]:.4f})"
                        if metric["name"] in wall else "")
            print(f"  {metric['name']:16s} median {median:12.5g} {metric['unit']:4s} "
                  f"spread {spr:7.4f}  bound {metric['bound']}{flag}{wall_spr}  "
                  f"values {' '.join(f'{v:.5g}' for v in vals)}")


if __name__ == "__main__":
    main()
