"""Metric helpers for the campaign benchmark.

Turns the raw samples that the campaign_bench program prints, and the
Chrome trace it writes in traced runs, into the reported metrics:
the percentile rule, span self time, per-layer figures and the result line.
"""

import json
import math
import statistics
from collections import defaultdict

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

# name -> unit. Reported by untraced runs (--trace 0) on every workload.
END_TO_END = {
    "jobs_per_s": "1/s",
    "campaigns_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# Mean time per call of a span name, in ms.
_MEAN_MS = {
    "masm.assemble_ms": "masm.assemble",
    "sim.predecode_ms": "sim.predecode",
    "sim.translate_ms": "sim.translate",
    "sim.reset_ms": "sim.reset",
    "kernels.setup_ms": "kernels.setup",
    "cpu.cycle_run_ms": "cpu.cycle_run",
    "sim.functional_run_ms": "sim.functional_run",
    "ckpt.digest_ms": "ckpt.digest",
    "ckpt.save_ms": "ckpt.save",
    "ckpt.restore_ms": "ckpt.restore",
    "farm.job_ms": "farm.job",
    "farm.campaign_json_ms": "farm.campaign_json",
    "serve.encode_ms": "serve.encode",
    "serve.ack_wait_ms": "serve.ack_wait",
    "serve.run_ms": "serve.run",
    "serve.payload_ms": "serve.payload",
    "serve.ping_rtt_ms": "serve.ping",
}

# Figures the program reports itself (not derivable from spans).
_FROM_PROGRAM = {
    "cpu.guest_packets": "count",
    "cpu.guest_cycles": "count",
    "cpu.stall_cycles": "count",
    "mem.dcache_hits": "count",
    "mem.dcache_misses": "count",
    "mem.icache_misses": "count",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "farm.worker_busy_frac": "frac",
    "trace_overhead_frac": "frac",
}

# name -> unit. Reported by traced runs (--trace 1) on every workload; a
# layer a workload does not exercise reads 0.
PER_LAYER = dict(
    {name: "ms" for name in _MEAN_MS},
    **{
        "kernels.finalize_self_ms": "ms",
        "cpu.cycle_mpackets_per_s": "Mpackets/s",
        "sim.functional_mpackets_per_s": "Mpackets/s",
        "ckpt.bytes": "B",
        "farm.campaign_json_bytes": "B",
        "share.sim": "frac",
        "share.cpu": "frac",
        "share.kernels": "frac",
        "share.ckpt": "frac",
        "share.attributed": "frac",
    },
    **_FROM_PROGRAM,
)


class PercentileRefused(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(samples, p):
    """Nearest-rank p-th percentile of `samples`.

    Refuses (PercentileRefused) when fewer than MIN_BEYOND samples lie
    beyond it, i.e. when n - ceil(p/100 * n) < MIN_BEYOND.
    """
    n = len(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if n == 0 or beyond < MIN_BEYOND:
        raise PercentileRefused(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {max(beyond, 0)}")
    return sorted(samples)[rank - 1]


def load_spans(trace_path):
    """Complete ("X") events of a Chrome trace file as span dicts (times in us)."""
    with open(trace_path) as f:
        return parse_trace(f.read())


def parse_trace(text):
    """Span dicts from Chrome trace-event JSON text."""
    trace = json.loads(text)
    spans = []
    for e in trace["traceEvents"]:
        if e.get("ph") != "X":
            continue
        a = e["args"]
        spans.append({"name": e["name"], "id": a["id"], "parent": a["parent"],
                      "ts": float(e["ts"]), "dur": float(e["dur"]),
                      "count": a.get("count", 0)})
    return spans


def self_times(spans):
    """Map span id -> self time: duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        start, end = s["ts"], s["ts"] + s["dur"]
        ivs = sorted((max(c["ts"], start), min(c["ts"] + c["dur"], end))
                     for c in children[s["id"]])
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[s["id"]] = s["dur"] - covered
    return out


def aggregate(spans):
    """Per span name: calls, total and self time (us), summed work count."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "total_us": 0.0, "self_us": 0.0,
                               "count": 0})
    for s in spans:
        a = agg[s["name"]]
        a["calls"] += 1
        a["total_us"] += s["dur"]
        a["self_us"] += selfs[s["id"]]
        a["count"] += s["count"]
    return agg


def _mean_ms(agg, name):
    a = agg.get(name)
    return a["total_us"] / a["calls"] / 1e3 if a and a["calls"] else 0.0


def _rate(agg, name):
    """Work count per microsecond of span time = millions per second."""
    a = agg.get(name)
    return a["count"] / a["total_us"] if a and a["total_us"] > 0 else 0.0


def per_layer_metrics(spans, counts):
    """Every PER_LAYER metric from the trace spans and the program's counts."""
    agg = aggregate(spans)
    m = {name: _mean_ms(agg, span) for name, span in _MEAN_MS.items()}
    digest_ms = m["ckpt.digest_ms"]
    finalize = agg.get("kernels.finalize", {"calls": 0, "total_us": 0.0})
    m["kernels.finalize_self_ms"] = (
        _mean_ms(agg, "kernels.finalize") - digest_ms
        if finalize["calls"] else 0.0)
    m["cpu.cycle_mpackets_per_s"] = _rate(agg, "cpu.cycle_run")
    m["sim.functional_mpackets_per_s"] = _rate(agg, "sim.functional_run")
    save = agg.get("ckpt.save")
    m["ckpt.bytes"] = save["count"] / save["calls"] if save else 0.0
    js = agg.get("farm.campaign_json")
    m["farm.campaign_json_bytes"] = js["count"] / js["calls"] if js else 0.0

    # Shares of job time. finalize_kernel runs arch_digest inside itself;
    # the separately timed digest splits finalize into ckpt and kernels.
    job = agg.get("farm.job")
    job_us = job["total_us"] if job else 0.0

    def total(name):
        return agg[name]["total_us"] if name in agg else 0.0

    digest_in_jobs = min(finalize["calls"] * digest_ms * 1e3,
                         total("kernels.finalize"))
    parts = {
        "share.sim": total("sim.reset") + total("sim.functional_run"),
        "share.cpu": total("cpu.cycle_run"),
        "share.kernels": (total("kernels.setup") + total("kernels.finalize")
                          - digest_in_jobs),
        "share.ckpt": digest_in_jobs,
    }
    for name, us in parts.items():
        m[name] = us / job_us if job_us else 0.0
    m["share.attributed"] = (
        (job_us - job["self_us"]) / job_us if job_us else 0.0)

    for name in _FROM_PROGRAM:
        m[name] = float(counts.get(name, 0.0))
    return m


def window_rate(windows, column):
    """Median over throughput windows of (column count / window seconds)."""
    return statistics.median(w[column] / w[0] for w in windows)


def end_to_end_metrics(raw):
    """Every END_TO_END metric from an untraced run's raw samples.

    Throughput is the median rate over the run's windows (one per farm
    campaign; ten equal time slices for serve). Returns (metrics,
    sample_counts); raises PercentileRefused when the latency sample is too
    small for a reported percentile.
    """
    lat = raw["latency_ms"]
    windows = raw["windows"]
    m = {
        "jobs_per_s": window_rate(windows, 1),
        "campaigns_per_s": window_rate(windows, 2),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p95_ms": percentile(lat, 95),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
    }
    n = {
        "jobs_per_s": len(windows),
        "campaigns_per_s": len(windows),
        "latency_p50_ms": len(lat),
        "latency_p95_ms": len(lat),
        "setup_s": len(raw["setup_s"]),
        "peak_rss_mb": 1,
        "ok_frac": raw["attempted"],
    }
    return m, n


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's final stdout line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })


def parse_result_line(line):
    """Inverse of result_line: (correct, attempted, failed, metrics, units)."""
    d = json.loads(line)
    if set(d) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(d)}")
    metrics = {k: v["value"] for k, v in d["metrics"].items()}
    units = {k: v["unit"] for k, v in d["metrics"].items()}
    return d["correct"], d["attempted"], d["failed"], metrics, units
