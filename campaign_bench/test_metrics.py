"""Tests for the campaign benchmark's helpers.

Run from the repository root:  python3 -m unittest discover campaign_bench
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402


def span(sid, parent, name, ts, dur, count=0):
    return {"id": sid, "parent": parent, "name": name, "ts": float(ts),
            "dur": float(dur), "count": count}


class PercentileRule(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond(self):
        xs = list(range(1, 201))  # 200 samples: rank 190, 10 beyond
        self.assertEqual(metrics.percentile(xs, 95), 190)
        with self.assertRaises(metrics.PercentileRefused) as cm:
            metrics.percentile(xs[:199], 95)
        self.assertIn("199 samples", str(cm.exception))

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(metrics.percentile(list(range(20, 0, -1)), 50), 10)
        with self.assertRaises(metrics.PercentileRefused):
            metrics.percentile(list(range(19)), 50)

    def test_empty_sample_is_refused(self):
        with self.assertRaises(metrics.PercentileRefused):
            metrics.percentile([], 50)

    def test_end_to_end_reports_sample_counts(self):
        raw = {"latency_ms": [float(i) for i in range(300)],
               # {seconds, jobs, campaigns}; the slow middle window is the
               # median's outlier, not its value.
               "windows": [[1.0, 30, 1], [3.0, 30, 1], [1.5, 30, 1]],
               "setup_s": [0.3, 0.1, 0.2],
               "peak_rss_mb": 100.0, "failed": 0, "attempted": 300}
        m, n = metrics.end_to_end_metrics(raw)
        self.assertEqual(set(m), set(metrics.END_TO_END))
        self.assertEqual(n["latency_p95_ms"], 300)
        self.assertEqual(n["jobs_per_s"], 3)
        self.assertEqual(m["latency_p95_ms"], 284.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["jobs_per_s"], 20.0)
        self.assertAlmostEqual(m["campaigns_per_s"], 1 / 1.5)
        self.assertEqual(m["ok_frac"], 1.0)


class SpanSelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            span(1, 0, "farm.job", 0, 100),
            span(2, 1, "sim.reset", 10, 20),          # 10..30
            span(3, 1, "cpu.cycle_run", 40, 50),      # 40..90
            span(4, 3, "inner", 50, 10),              # grandchild
        ]
        st = metrics.self_times(spans)
        self.assertEqual(st[1], 30.0)  # 100 - (20 + 50)
        self.assertEqual(st[2], 20.0)
        self.assertEqual(st[3], 40.0)  # 50 - 10
        self.assertEqual(st[4], 10.0)

    def test_overlapping_and_overhanging_children(self):
        spans = [
            span(1, 0, "p", 0, 100),
            span(2, 1, "a", 10, 30),   # 10..40
            span(3, 1, "b", 30, 20),   # 30..50, overlaps a
            span(4, 1, "c", 90, 30),   # 90..120, clipped to 100
        ]
        self.assertEqual(metrics.self_times(spans)[1], 100.0 - 40.0 - 10.0)

    def test_shares_and_finalize_split(self):
        spans = [
            span(1, 0, "farm.job", 0, 100),
            span(2, 1, "sim.reset", 0, 10),
            span(3, 1, "kernels.setup", 10, 5),
            span(4, 1, "cpu.cycle_run", 15, 20, count=40),
            span(5, 1, "kernels.finalize", 35, 64),
            span(6, 0, "farm.probe", 200, 80),
            span(7, 6, "ckpt.digest", 200, 60),
        ]
        m = metrics.per_layer_metrics(spans, {"cpu.guest_packets": 7})
        self.assertEqual(set(m), set(metrics.PER_LAYER))
        self.assertAlmostEqual(m["share.attributed"], 0.99)
        self.assertAlmostEqual(m["share.ckpt"], 0.60)
        self.assertAlmostEqual(m["share.kernels"], 0.09)
        self.assertAlmostEqual(m["share.sim"], 0.10)
        self.assertAlmostEqual(m["share.cpu"], 0.20)
        self.assertAlmostEqual(m["kernels.finalize_self_ms"], 0.004)
        self.assertAlmostEqual(m["cpu.cycle_mpackets_per_s"], 2.0)
        self.assertEqual(m["cpu.guest_packets"], 7.0)
        self.assertEqual(m["serve.run_ms"], 0.0)


class OutputJson(unittest.TestCase):
    def test_result_line_round_trip(self):
        values = {"jobs_per_s": 27.251234567, "setup_s": 0.0137}
        units = {"jobs_per_s": "1/s", "setup_s": "s"}
        line = metrics.result_line(True, 224, 0, values, units)
        self.assertEqual(set(json.loads(line)),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(metrics.parse_result_line(line),
                         (True, 224, 0, values, units))

    def test_chrome_trace_parses(self):
        text = json.dumps({"displayTimeUnit": "ms", "traceEvents": [
            {"name": "farm.job", "cat": "host", "ph": "X", "pid": 1,
             "tid": 2, "ts": 1.5, "dur": 10.25,
             "args": {"id": 1, "parent": 0, "key": 7, "count": 0}}]})
        (s,) = metrics.parse_trace(text)
        self.assertEqual((s["name"], s["ts"], s["dur"]),
                         ("farm.job", 1.5, 10.25))

    def test_metric_names_match_benchmark_json(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
