"""End-to-end benchmark of the default SubmitQueue ``CoreService`` stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload deep-burst --seed 1 --seconds 30 --trace 0

One single-threaded client drives the run's cells (see ``workloads.py``)
round-robin, each through a fresh service, until ``--seconds`` have
passed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with no wrappers;
* ``--trace 1``: the per-layer metrics.  Each cell is driven untraced
  and then traced; the spans are written to
  ``perfbench/out/<workload>.trace.json`` (Chrome trace JSON).

The program is imported from ``src/`` next to this directory and never
from anywhere else; without it the benchmark exits with status 2 before
printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from measure import timed_run, traced_run
    from workloads import WORKLOADS, mint

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    os.makedirs(OUT, exist_ok=True)
    cells = mint(WORKLOADS[args.workload], args.seed)
    if args.trace:
        trace_path = os.path.join(OUT, f"{args.workload}.trace.json")
        result = traced_run(cells, args.seconds, OUT, trace_path)
    else:
        result = timed_run(cells, args.seconds, OUT)
    problems = result["problems"]
    for problem in problems:
        print(f"FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["attempted"],
                "failed": min(len(problems), result["attempted"]),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
