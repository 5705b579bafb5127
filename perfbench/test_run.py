"""Unit tests for run.py's span accounting and digests.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import unittest

import run


def span(name, thread, sid, parent, start, end, kernel="", bytes_=0,
         records=0, count=0):
    return {"name": name, "kernel": kernel, "thread": thread, "id": sid,
            "parent": parent, "start_ns": start, "end_ns": end,
            "bytes": bytes_, "records": records, "count": count}


SPANS = [
    # lane 0: a put whose hash is a child, then a capture
    span("cas.put", 0, 0, -1, 0, 400_000_000, bytes_=2_000_000, count=1),
    span("cas.hash", 0, 1, 0, 100_000_000, 200_000_000,
         bytes_=2_000_000, count=1),
    span("workloads.capture", 0, 2, -1, 500_000_000, 1_500_000_000,
         kernel="bfs", records=1000, count=1),
    # lane 1: replay then timing of the same kernel
    span("trace_sim.run", 1, 0, -1, 0, 250_000_000, kernel="bfs",
         records=1000, count=7),
    span("timing_sim.run", 1, 1, -1, 250_000_000, 1_250_000_000,
         kernel="bfs", records=1000, count=40),
]
# Untraced reference repetitions: medians are wall 1.6 s and
# utilization 2.4 / (1.6 x 2).
REFS = [{"wall_s": 1.6, "cpu_s": 2.4, "cells": []},
        {"wall_s": 1.5, "cpu_s": 2.4, "cells": []},
        {"wall_s": 2.5, "cpu_s": 3.0, "cells": []}]
TRACED = {"wall_s": 2.0, "cells": []}
OUT = {"cache": {"result_hits": 1, "result_misses": 3}, "lanes": 3,
       "threads": 2}


class SpanAccounting(unittest.TestCase):
    def test_self_time_excludes_children(self):
        self.assertEqual(run.self_times(SPANS),
                         [0.3, 0.1, 1.0, 0.25, 1.0])

    def test_layers_and_other_account_for_lane_time(self):
        m = run.layer_metrics(SPANS, REFS, TRACED, OUT)
        layers = (m["cas.put_s"] + m["cas.hash_s"] +
                  m["workloads.capture_s"] + m["trace_sim.s"] +
                  m["timing_sim.s"])
        self.assertAlmostEqual(layers + m["other_s"], 2.0 * 3)
        self.assertAlmostEqual(m["cas.put_mb_per_s"], 2.0 / 0.3)
        self.assertAlmostEqual(m["cas.hash_mb_per_s"], 2.0 / 0.1)
        self.assertEqual(m["workloads.records.bfs"], 1000)
        self.assertEqual(m["trace_sim.migrated_pages"], 7)
        self.assertEqual(m["timing_sim.mem_accesses.bfs"], 40)
        self.assertEqual(m["timing_sim.s.sssp"], 0)
        self.assertEqual(m["cas.result_hit_rate"], 0.25)
        self.assertAlmostEqual(m["sweep.cpu_utilization"], 2.4 / 3.2)
        self.assertAlmostEqual(m["tracing.overhead_ratio"], 2.0 / 1.6)

    def test_missing_layer_spans_fail(self):
        out = dict(OUT, cache=dict(OUT["cache"], bytes_read=0,
                                   bytes_written=2_000_000))
        m = run.layer_metrics(SPANS, REFS, TRACED, out)
        chk = run.Checker()
        run.check_spans("fig08_cold", SPANS, m, out, chk)
        # trace.encode is expected on fig08_cold but has no span.
        self.assertEqual(chk.failed, 1)
        chk = run.Checker()
        run.check_spans("fig08_cold",
                        SPANS + [span("trace.encode", 1, 2, -1, 0, 1)],
                        m, out, chk)
        self.assertEqual(chk.failed, 0)


class HostSpeed(unittest.TestCase):
    def test_normalize_scales_only_host_times(self):
        m = {n: run.metric(1.0, u) for n, u, _ in run.END_TO_END}
        # Median probe trial 0.6 s: the host runs at half the reference
        # speed, so times halve and rates double.
        run.normalize(m, [0.6, 0.5, 0.9])
        self.assertAlmostEqual(m["setup_s"]["value"], 0.5)
        self.assertAlmostEqual(m["experiments_per_s"]["value"], 2.0)
        self.assertAlmostEqual(m["cpu_s_per_experiment"]["value"], 0.5)
        self.assertEqual(m["peak_rss_mb"]["value"], 1.0)
        self.assertEqual(m["fig08_log_err"]["value"], 1.0)


class Declarations(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]],
                         run.per_layer_spec())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         run.WORKLOADS)

    def test_digest_covers_cells_and_counts(self):
        cells = [{"kernel": "bfs", "setup": "baseline", "digest": "ab",
                  "records": 5, "migrated_pages": 2, "mem_accesses": 9}]
        d1, counts = run.artifact_digest(cells)
        self.assertEqual(counts["timing_sim.mem_accesses"], 9)
        cells[0]["mem_accesses"] = 10
        self.assertNotEqual(run.artifact_digest(cells)[0], d1)


if __name__ == "__main__":
    unittest.main()
