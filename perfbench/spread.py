#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload net_sweep --runs 10 [--first-seed 1]

Runs the benchmark `--runs` times, each with the next seed, and prints for
every end-to-end metric its median and its spread: the distance between
the first and third quartile as a share of the median. A benchmark is
steady when every spread except `setup_s`'s stays well inside the
metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import median, spread  # noqa: E402


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, check=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} output checks failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        print(f"{args.workload} {m['name']}: median {median(v):.6g} {m['unit']}, "
              f"spread {spread(v):.4f} (bound {m['bound']})")


if __name__ == "__main__":
    main(sys.argv[1:])
