#!/usr/bin/env python3
"""The benchmark's own tests: every workload in its quick-scale smoke mode,
untraced and traced, must emit every metric BENCHMARK.json names and pass
its output checks; the checks must catch a wrong output; and without the
program's sources the benchmark must fail without printing a result.

    python3 perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# A per-layer metric each workload's traced run must move off zero.
LAYER_PROBES = {
    "study_full": ["core.phase.scan_campaign.s", "core.overlap", "exec.tasks", "scan.tx_per_s",
                   "measure.reach.global.us_per_client", "measure.doh_discovery.us_per_check",
                   "traffic.netflow.flows_per_s", "cache.hit_share", "core.obs_digest_runs"],
    "campaign_faults_journal": ["checkpoint.records", "checkpoint.journal_bytes",
                                "fault.scanner.injected", "fault.recovered_share",
                                "proxy.failovers"],
    "query_loop": ["client.dot.p50_us", "client.doh_get.allocs_per_query", "dns.encode_ns",
                   "tls.verify_us", "http.parse_ns", "query.unattributed_share",
                   "cache.hit_share"],
}


def invoke(workload, trace, root=run.ROOT, seed=5):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "quick"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def smoke(self, workload, trace):
        done = invoke(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(result["metrics"]), {m["name"] for m in self.bench[kind]})
        for m in self.bench[kind]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if run.WORKLOADS[workload]["binary"] == "study":
            # 25 table digests, 24 findings and the work counts, per run.
            self.assertGreaterEqual(result["attempted"], 25 + 24 + 17)
        else:
            self.assertGreaterEqual(result["attempted"], 20000)
        return result["metrics"]

    def test_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.smoke(workload, 0)

    def test_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.smoke(workload, 1)
                self.assertGreaterEqual(metrics["trace.coverage"]["value"], 0.9)
                for name in LAYER_PROBES[workload]:
                    self.assertGreater(metrics[name]["value"], 0, name)


class CheckTest(unittest.TestCase):
    def test_wrong_outputs_fail(self):
        reference = run.load_reference()
        ref = reference["quick"]["off"]["graph"][str(run.WORLD_SEEDS[0])]
        rep = {"attempted": 24, "failed": 0, "failures": [],
               "digests": {"table." + k: v for k, v in ref["tables"].items()},
               "counts": dict(ref["counts"])}
        _, failed, _ = run.check_rep(rep, "study_full", run.WORLD_SEEDS[0], "quick", reference)
        self.assertEqual(failed, 0)
        rep["digests"]["table.table4"] = "0" * 16
        rep["counts"]["work.scan.engine.tx"] += 1
        _, failed, failures = run.check_rep(rep, "study_full", run.WORLD_SEEDS[0], "quick",
                                            reference)
        self.assertEqual(failed, 2, failures)

    def test_missing_layer_metric_fails(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            wanted = json.load(f)["per_layer"]
        values = {m["name"]: 1.0 for m in wanted}
        layers = run.layer_values(values, "study_full", wanted)
        self.assertEqual(layers["client.dot.p50_us"], 0.0)  # an idle layer
        self.assertEqual(layers["core.overlap"], 1.0)
        del values["measure.doh_discovery.us_per_check"]
        with self.assertRaises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
            run.layer_values(values, "study_full", wanted)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = invoke("study_full", 0, root=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
