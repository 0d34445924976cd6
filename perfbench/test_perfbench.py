#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload briefly through run.py (which
builds the benchmark first if needed) and checks the result contract:
every metric printed under its name and unit, every output check
passing, the metric set independent of the seed, and the simulated
metrics and per-layer counts repeating exactly for a fixed seed.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# bsc-radix-dist-checked is left out of BENCHMARK.json (its host time
# is too noisy on shared hosts; README.md) but must still pass.
WORKLOADS = ([w["name"] for w in SPEC["workloads"]] +
             ["bsc-radix-dist-checked"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Short runs: each still does its minimum rounds and every check.
SECONDS = "1"

# Deterministic per-layer metrics: counts and ratios of counts from the
# modelled machine or the exploration, as opposed to host times.
HOST_LAYER = {"sim.ns_per_event", "workload.generate_s", "system.build_s",
              "system.run_s", "analysis.host_s", "signature.insert_ns",
              "signature.contains_ns", "signature.intersect_ns",
              "explore.fingerprint_us", "tracing.overhead_pct"}
SIM_END_TO_END = {"sim_cycles", "net_bytes_per_kinstr"}

_cache = {}


def bench(workload, seed, trace):
    """Run the benchmark once; returns (report lines, result dict)."""
    key = (workload, seed, trace)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed",
             str(seed), "--seconds", SECONDS, "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise AssertionError("%s failed (%d):\n%s" % (
                key, proc.returncode, proc.stderr[-4000:]))
        lines = proc.stdout.strip().splitlines()
        _cache[key] = (lines, json.loads(lines[-1]))
    return _cache[key]


def line_with(lines, prefix):
    return [l for l in lines if l.startswith(prefix)]


class ResultContract(unittest.TestCase):
    def check_result(self, workload, trace):
        lines, res = bench(workload, 1, trace)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], "\n".join(lines))
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in spec])
        for name, m in res["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], UNITS[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
            # The report prints the same metric with its unit.
            self.assertTrue(any(l.split()[1:2] == [name] and
                                l.split()[3] == m["unit"]
                                for l in line_with(lines, "metric ")),
                            name)
        if not trace:
            for name, m in res["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        self.assertTrue(line_with(lines, "checks pass"))

    def test_every_metric_printed_with_its_unit(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check_result(w, trace)

    def test_traced_run_writes_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                lines, _ = bench(w, 1, 1)
                names = {l.split()[1] for l in line_with(lines, "span ")}
                self.assertIn("system.build", names)
                self.assertIn("system.run", names)
                self.assertIn("signature.replay", names)
                path = os.path.join(
                    ROOT, ".bench_build", "spans", "%s-seed1.json" % w)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                for e in events:
                    self.assertEqual(set(e["args"]),
                                     {"span", "parent", "id"})
                    self.assertGreaterEqual(e["dur"], 0)


class Seeds(unittest.TestCase):
    def test_other_seed_changes_inputs_not_metric_set(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                l1, r1 = bench(w, 1, 0)
                l2, r2 = bench(w, 2, 0)
                self.assertNotEqual(line_with(l1, "input"),
                                    line_with(l2, "input"))
                self.assertEqual(list(r1["metrics"]), list(r2["metrics"]))
                self.assertTrue(r2["correct"])

    def test_fixed_seed_repeats_sim_metrics_and_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                l0, r0 = bench(w, 1, 0)
                _cache.pop((w, 1, 0))
                l0b, r0b = bench(w, 1, 0)
                for name in SIM_END_TO_END:
                    self.assertEqual(r0["metrics"][name],
                                     r0b["metrics"][name], name)
                self.assertEqual(line_with(l0, "digest"),
                                 line_with(l0b, "digest"))
                self.assertEqual(line_with(l0, "input"),
                                 line_with(l0b, "input"))
                # The traced run simulates the same inputs: same
                # digests, same per-layer counts.
                l1, r1 = bench(w, 1, 1)
                _cache.pop((w, 1, 1))
                l1b, r1b = bench(w, 1, 1)
                self.assertEqual(line_with(l0, "digest"),
                                 line_with(l1, "digest"))
                for name, m in r1["metrics"].items():
                    if name not in HOST_LAYER:
                        self.assertEqual(m, r1b["metrics"][name], name)


class Failure(unittest.TestCase):
    def test_missing_sources_fail_without_result(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)

    @unittest.expectedFailure
    def test_contended_radix_completes(self):
        # Distributed-arbiter commit livelock under destination-link
        # contention (README.md, "Known defect"): expected to fail
        # until the simulator is fixed.
        _, res = bench("bsc-radix-dist-contended", 1, 0)
        self.assertTrue(res["correct"])


if __name__ == "__main__":
    unittest.main()
