#!/usr/bin/env python3
"""Campaign benchmark: farm-small, farm-large and serve-mixed end to end.

Usage (from the repository root):

    python3 campaign_bench/run.py --workload farm-small --seed 1 \
        --seconds 20 --trace 0

Builds the simulator library and the campaign_bench program from source
into .bench_build/ on first use, runs one workload, checks its outputs, and
prints every metric with its unit and sample count. The last stdout line is
the result as JSON: end-to-end metrics with --trace 0, per-layer metrics
(from the Chrome trace it also writes to .bench_build/traces/) with
--trace 1. Exits 1 if any output was wrong, 2 if the benchmark could not run.
See campaign_bench/README.md for the metrics and workloads.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(REPO, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "campaign_bench")
WORKLOADS = ("farm-small", "farm-large", "serve-mixed")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"campaign_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; serialized by a lock file."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to campaign_bench/")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "campaign_bench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                      "--target", "campaign_bench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "campaign_bench")


def print_table(values, units, samples):
    for name, v in values.items():
        n = samples.get(name)
        extra = f"  (n={n})" if n is not None else ""
        print(f"  {name:32s} {v:16.6f} {units[name]}{extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    exe = build()
    trace_path = os.path.join(
        OUT_DIR, "traces", f"{args.workload}-seed{args.seed}.json")
    sock_dir = os.path.join(OUT_DIR, "sock")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    os.makedirs(sock_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.relpath(trace_path, REPO),
           # Relative: AF_UNIX paths are limited to 108 bytes.
           "--sock-dir", os.path.relpath(sock_dir, REPO)]
    try:
        proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        die(f"campaign_bench exited {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    correct = raw["failed"] == 0
    for msg in raw["failures"]:
        print(f"FAILED: {msg}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={raw['jobs']} campaigns={raw['campaigns']} "
          f"attempted={raw['attempted']} failed={raw['failed']}")
    if args.trace:
        try:
            spans = metrics.load_spans(trace_path)
        except (OSError, ValueError, KeyError) as e:
            die(f"trace file {trace_path} is not Chrome trace JSON: {e}", 1)
        values = metrics.per_layer_metrics(spans, raw["counts"])
        units = metrics.PER_LAYER
        print_table(values, units, {})
        print(f"  trace: {os.path.relpath(trace_path, REPO)} "
              f"({len(spans)} spans)")
    else:
        try:
            values, samples = metrics.end_to_end_metrics(raw)
        except metrics.PercentileRefused as e:
            die(f"latency sample too small: {e}", 1)
        units = metrics.END_TO_END
        print(f"  latency unit: one {raw['latency_unit']}")
        print_table(values, units, samples)
    print(metrics.result_line(correct, raw["attempted"], raw["failed"],
                              values, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
