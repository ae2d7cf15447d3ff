#!/usr/bin/env python3
"""End-to-end reproduction benchmark of the pbbf workspace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_reproduce --seed 1 --seconds 45 --trace 0

It builds `pbbf` and the benchmark worker (`perfbench/`, a cargo package
of its own) into $CARGO_TARGET_DIR (default `.bench_build`), times the
workload's set-up in fresh processes, runs the workload in one worker
process, checks its outputs, prints every metric with its unit, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count output checks. With `--trace 0` the metrics
are the `end_to_end` ones of BENCHMARK.json, with `--trace 1` the
`per_layer` ones; BENCHMARK.json is the single list of names and units.
The traced run also writes every span, with its self time, to
`<target>/perfbench/trace-<workload>-<seed>.json`.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

# Workloads the worker runs that BENCHMARK.json leaves out: on a shared
# host their run-to-run spread is wider than any bound it may set. They
# still run by hand, and once in every traced run for their layers.
LAYER_WORKLOADS = ("ideal_points", "net_sweep")

# Fresh processes whose set-up `setup_s` takes the median of.
SETUP_PROBES = 31

# A timing's tail is reported at the highest of these percentiles that
# has at least TAIL_SAMPLES samples beyond it.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_SAMPLES = 10


class BenchError(Exception):
    pass


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as the spread rule
    computes them (`statistics.quantiles(values, n=4)`)."""
    return statistics.quantiles(values, n=4)


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def percentile(values, p):
    """Nearest-rank percentile `p` (0 < p <= 100) of `values`."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_percentile(values, candidates=PERCENTILES, tail=TAIL_SAMPLES):
    """`(p, value)` for the highest percentile in `candidates` that has at
    least `tail` samples beyond it, or None when there are too few."""
    n = len(values)
    for p in sorted(candidates, reverse=True):
        if n - math.ceil(p / 100.0 * n) >= tail:
            return p, percentile(values, p)
    return None


def reduce_layer(name, layers, result):
    """One per-layer metric from the worker's raw samples."""
    if name == "trace.overhead_s":
        return median(result["traced_wall_s"]) - median(result["wall_s"])
    base, _, tail = name.rpartition(".")
    if tail in ("p50", "p90"):
        return percentile(layers[base], float(tail[1:]))
    return median(layers[name])


def build(target):
    """Builds `pbbf` and the worker; returns both executables' paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "pbbf"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "pbbf"), os.path.join(release, "perfbench-worker")


def time_setup(worker, workload, pbbf):
    """Median wall time of a fresh worker process doing `workload`'s
    set-up, over SETUP_PROBES processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        code = subprocess.run(
            [worker, "setup", "--workload", workload, "--pbbf", pbbf]).returncode
        times.append(time.perf_counter() - start)
        if code != 0:
            raise BenchError(f"set-up of {workload} exited with {code}")
    return median(times)


def run_worker(cmd):
    """Runs the worker; returns its result and the peak RSS in KiB of it
    and every child it reaped (wait4's ru_maxrss)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss


def describe(name, value, unit, samples=None):
    line = f"{name} = {value:.6g} {unit}"
    if samples:
        tail = highest_percentile(samples)
        tail_text = f", p{tail[0]:g} {tail[1]:.6g}" if tail else ", no percentile has 10 samples beyond it"
        line += f" (median of {len(samples)}{tail_text})"
    print(line)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]] + list(LAYER_WORKLOADS)
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r} (choose from {names})")
    if args.seed < 0 or args.seconds < 1:
        raise BenchError("--seed must be >= 0 and --seconds >= 1")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    pbbf, worker = build(target)
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [worker, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--pbbf", pbbf]
    trace_file = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    if args.trace:
        cmd += ["--trace-out", trace_file]
        setup_s = None
    else:
        setup_s = time_setup(worker, args.workload, pbbf)
    result, children_peak_kib = run_worker(cmd)

    walls = result["wall_s"]
    print(f"workload {args.workload}: seed {args.seed}, {result['iterations']} iterations, "
          f"{result['threads']} threads")
    metrics = {}
    if args.trace:
        layers = result["layers"]
        for m in spec["per_layer"]:
            try:
                value = reduce_layer(m["name"], layers, result)
            except KeyError as e:
                raise BenchError(f"worker reported no samples for {m['name']} ({e})")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            describe(m["name"], value, m["unit"])
        print(f"spans with self times: {trace_file}")
    else:
        measured = {
            "wall_s": median(walls),
            "cpu_s": result["cpu_s"],
            "setup_s": setup_s,
            "peak_rss_mib": max(result["vm_hwm_kib"], children_peak_kib) / 1024.0,
        }
        for m in spec["end_to_end"]:
            value = measured[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            describe(m["name"], value, m["unit"], walls if m["name"] == "wall_s" else None)

    attempted = result["checks_attempted"]
    failed = result["checks_failed"]
    print(f"failed_frac = {len(failed) / max(attempted, 1):.6g} ({len(failed)} of {attempted} checks)")
    for name in failed:
        print(f"  failed: {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except (BenchError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
