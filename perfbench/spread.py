"""Run the benchmark on several seeds and report each metric's spread.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload deep-burst --runs 10 [--first-seed 1]

Each run uses another ``--seed``.  For every metric the table shows the
median of the runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound in ``BENCHMARK.json``.  Runs are sequential, so they do
not compete with each other for the CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        output = subprocess.run(
            command, cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout
        result = json.loads(output.strip().splitlines()[-1])
        if not result["correct"]:
            print(output, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
        ), flush=True)
    print(f"{'metric':<34}{'median':>12}{'spread':>9}{'bound':>7}")
    for name, series in values.items():
        median = statistics.median(series)
        first, _, third = statistics.quantiles(series, n=4)
        spread = (third - first) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:<34}{median:>12.6g}{spread:>9.3f}"
              f"{'' if bound is None else format(bound, '.2f'):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
