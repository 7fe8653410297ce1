#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 ipmbench/test_ipmbench.py        (from the repository root)

For every workload: the result line of run.py carries exactly the metrics
BENCHMARK.json names for the mode, with their units, and verifies clean; and
two traced runs with the same seed report identical count metrics.  Runs
are short (--seconds 1), so the timings themselves are not checked.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "ipmbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Count metrics that must repeat exactly for a fixed seed, per workload.
# Left out because they depend on timing: ipm_aggd.jsonl_bytes_per_sample
# (the daemon's cluster-point lines carry the ranks attached when emission
# ran), and ipm_aggd.resent and ipm_aggd.protocol_errors (how many frames
# the daemon had applied when a kill struck, and whether it saw the kill as a
# truncated frame or as a failed ack write).
APP_COUNTS = ["core.events", "core.wrapper_events", "core.signatures", "core.table_overflow",
              "ipm_cuda.launches", "ipm_cuda.hostidle_probes", "core.trace_records",
              "core.trace_drops", "ipm_live.samples", "ipm_live.drops",
              "ipm_live.wire_bytes_per_sample"]
FLEET_COUNTS = ["ipm_live.samples", "ipm_live.wire_bytes_per_sample", "gen.kills",
                "ipm_aggd.stalled_disconnects"]


def run(workload, seed, trace):
    res = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    last = res.stdout.rstrip("\n").split("\n")[-1]
    return res.returncode, json.loads(last)


class BenchmarkTest(unittest.TestCase):
    def check_schema(self, out, metrics):
        self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(sorted(out["metrics"]), sorted(m["name"] for m in metrics))
        for m in metrics:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def check_workload(self, workload, counts):
        rc, out = run(workload, 5, 0)
        self.assertEqual(rc, 0)
        self.check_schema(out, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            self.assertGreater(out["metrics"][m["name"]]["value"], 0, m["name"])
        traced = []
        for _ in range(2):
            rc, out = run(workload, 7, 1)
            self.assertEqual(rc, 0)
            self.check_schema(out, SPEC["per_layer"])
            traced.append(out["metrics"])
        for name in counts:
            self.assertEqual(traced[0][name]["value"], traced[1][name]["value"], name)
        return traced

    def test_amber_stream(self):
        self.check_workload("amber_stream", APP_COUNTS)

    def test_hpl_collect(self):
        self.check_workload("hpl_collect", APP_COUNTS)

    def test_fleet_burst(self):
        # Even a short run kills, reconnects and resends on every pass.
        for m in self.check_workload("fleet_burst", FLEET_COUNTS):
            kills = m["gen.kills"]["value"]
            self.assertGreater(kills, 0)
            self.assertLessEqual(m["ipm_aggd.protocol_errors"]["value"], kills)

    def test_fleet_idle(self):
        self.check_workload("fleet_idle", FLEET_COUNTS)


if __name__ == "__main__":
    unittest.main()
