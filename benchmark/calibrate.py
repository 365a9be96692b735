#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each run with its own
seed, and reports every end-to-end metric's median, quartile spread and
range next to its bound.

The spread is (q3 - q1) / median with q1 and q3 from
statistics.quantiles(values, n=4); the range is (max - min) / median.
A metric is steady when its spread stays below a third of its bound in
BENCHMARK.json. The bound it needs is twice its largest range over the
workloads, and no less than its initial bound below; BENCHMARK.json
caps every bound at 0.25.

Run from the repository root:

    python3 benchmark/calibrate.py                      # 10 runs per workload
    python3 benchmark/calibrate.py --runs 5 --workload serve-mix
    python3 benchmark/calibrate.py --baseline benchmark/baseline.json
    python3 benchmark/calibrate.py --first-seed 11 --against benchmark/baseline.json

--baseline records every run's values with median, minimum and maximum
per metric and workload, the machine's core count, `rustc -V` and the
git revision. --against compares this set's medians with a recorded
baseline's. The command and run length come from BENCHMARK.json;
CARGO_TARGET_DIR defaults to .bench_build, as when the benchmark is run
by hand.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# The regression bounds the benchmark started from, before calibration.
INITIAL_BOUNDS = {"setup_s": 0.20, "latency_ms_p50": 0.05, "ops_per_s": 0.05,
                  "peak_anon_mib": 0.05}
MAX_BOUND = 0.25


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def tool_output(args):
    try:
        return subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "min": min(values), "max": max(values),
        "spread": (q3 - q1) / median, "range": (max(values) - min(values)) / median,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--baseline")
    parser.add_argument("--against")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    seconds = opts.seconds or spec["run_seconds"]
    workloads = opts.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    against = None
    if opts.against:
        with open(opts.against) as f:
            against = json.load(f)["workloads"]

    summary = {}
    for workload in workloads:
        runs = [run_once(spec["command"], workload, opts.first_seed + k, seconds)
                for k in range(opts.runs)]
        summary[workload] = {}
        for name in runs[0]:
            s = summarize([r[name] for r in runs])
            summary[workload][name] = s
            bound = bounds[name]
            line = (f"{workload:18} {name:16} median {s['median']:12.6g} "
                    f"spread {s['spread']:6.2%} range {s['range']:6.2%} bound {bound:4} "
                    f"{'ok' if s['spread'] < bound / 3 else 'WIDE'}")
            if against and name in against.get(workload, {}):
                old = against[workload][name]["median"]
                shift = s["median"] / old - 1
                line += f"  vs baseline {shift:+6.2%} {'ok' if abs(shift) < bound else 'MOVED'}"
            print(line, flush=True)

    for name in bounds:
        ranges = [summary[w][name]["range"] for w in summary if name in summary[w]]
        need = max([INITIAL_BOUNDS.get(name, 0.0)] + [2 * r for r in ranges])
        print(f"{name:16} needs bound {need:6.2%} (2x largest range, at least the initial "
              f"{INITIAL_BOUNDS.get(name, 0.0):.0%}); declared {bounds[name]}"
              f"{'' if need <= MAX_BOUND else ' -- above the 0.25 cap'}")

    if opts.baseline:
        baseline = {
            "runs_per_workload": opts.runs,
            "first_seed": opts.first_seed,
            "run_seconds": seconds,
            "nproc": os.cpu_count(),
            "rustc": tool_output(["rustc", "-V"]),
            "git_revision": tool_output(["git", "rev-parse", "HEAD"]),
            "workloads": summary,
        }
        with open(opts.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
