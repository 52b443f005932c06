#!/usr/bin/env python3
"""Check bench/BENCH_trajectory.jsonl against BENCHMARK.json.

Usage: python3 bench/check_trajectory.py [TRAJECTORY [BENCHMARK_JSON]]
Every line must be a JSON object with commit, label, source, runs and
workloads; each workload one that BENCHMARK.json lists, each metric in it one
of its end_to_end metrics with a finite value ("runs" inside a workload lists
per-run samples). Exits 1 on any violation."""

import json
import math
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REQUIRED = ("commit", "label", "source", "runs", "workloads")


def finite(v):
    return type(v) in (int, float) and math.isfinite(v)


def check(lines, bench):
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    errors = []
    for n, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        if not isinstance(rec, dict):
            errors.append(f"line {n}: not a JSON object")
            continue
        errors += [f"line {n}: missing {k!r}" for k in REQUIRED if k not in rec]
        wls = rec.get("workloads")
        if not isinstance(wls, dict) or not wls:
            errors.append(f"line {n}: no workloads")
            continue
        for wl, vals in wls.items():
            if wl not in workloads:
                errors.append(f"line {n}: unknown workload {wl!r}")
            if not isinstance(vals, dict) or not set(vals) - {"runs"}:
                errors.append(f"line {n}: {wl} has no metrics")
                continue
            for name, v in vals.items():
                ok = (isinstance(v, list) and all(map(finite, v)) if name == "runs"
                      else name in metrics and finite(v))
                if not ok:
                    errors.append(f"line {n}: {wl}.{name} = {v!r} rejected")
    return errors


if __name__ == "__main__":
    args = sys.argv[1:] + [None, None]
    traj = args[0] or os.path.join(REPO, "bench", "BENCH_trajectory.jsonl")
    with open(traj) as f, open(args[1] or os.path.join(REPO, "BENCHMARK.json")) as b:
        errs = check(f.read().splitlines(), json.load(b))
    print("\n".join(errs) or f"{traj}: ok")
    sys.exit(1 if errs else 0)
