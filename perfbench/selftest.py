"""The benchmark's own tests: a tiny-size smoke of every workload.

    python3 perfbench/selftest.py

Runs ``run.py`` on every workload at the ``tiny`` size, untraced and
traced, and checks the record schema, which spans fire where, and that
the output checks reject corrupted records.  (Named so that the repo's
own test collection does not pick it up: it spawns a dozen benchmark
processes and takes about half a minute.)
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics that must be non-zero on their heavy workload.
FIRES = {
    "hdk_build": ["dht.lookup.calls", "net.size_bytes.calls",
                  "net.request.calls", "ir.top_k_for_key.calls",
                  "ir.score_documents.calls", "ir.analyze.calls",
                  "core.statistics_phase.self_s", "core.hdk.build.self_s",
                  "core.peer.on_message.calls", "core.query.calls",
                  "core.lattice.probed", "dht.hops"],
    "open_serve": ["sim.run.calls", "sim.events", "sim.events_per_s",
                   "dht.lookup_many_async.calls", "net.request_async.calls",
                   "core.runtime.submit.calls", "core.runtime.peak_active",
                   "core.runtime.probe_ok_ratio"],
    "churn_mixed": ["dht.membership.calls", "core.faults.join.calls",
                    "core.faults.crash.calls",
                    "core.faults.graceful_depart.calls",
                    "core.write.publish.calls", "core.write.unpublish.calls",
                    "core.handover.bytes"],
}

#: Per-layer metrics predicted to be zero on a workload.  Posting lists
#: are packed only for the wire codec (or with ``packed_postings``,
#: off by default), so no simulator workload packs any.
_CHURN_ONLY = [name for name in layers.METRICS
               if name.startswith(("dht.membership.", "core.faults.",
                                   "core.write.", "core.handover."))]
ZERO = {
    "hdk_build": ["sim.events", "sim.run.calls", "core.runtime.submit.calls",
                  "core.runtime.peak_active", "dht.lookup_many_async.calls",
                  "net.request_async.calls", "ir.pack_postings.calls"]
    + _CHURN_ONLY,
    "open_serve": ["core.query.calls", "ir.pack_postings.calls"]
    + _CHURN_ONLY,
    "churn_mixed": ["core.query.calls", "ir.pack_postings.calls"],
}


def bench(workload: str, trace: int, cwd: Path = ROOT):
    """Run the benchmark command at the tiny size."""
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"], cwd=cwd, capture_output=True, text=True,
        timeout=300)


class SpecTest(unittest.TestCase):
    """BENCHMARK.json keeps to its contract."""

    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(WORKLOADS) <= 8)
        names = WORKLOADS + [metric["name"] for metric in
                             SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        for workload in SPEC["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in SPEC["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better",
                                           "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [metric for metric in SPEC["end_to_end"]
                 if metric["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(metric["bound"] for metric in SPEC["end_to_end"]))

    def test_per_layer_matches_the_tracer(self):
        self.assertEqual({metric["name"]: (metric["unit"], metric["better"])
                          for metric in SPEC["per_layer"]}, layers.METRICS)


class SmokeTest(unittest.TestCase):
    """Every workload, untraced and traced, at the tiny size."""

    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace] = bench(workload, trace)

    def result(self, workload, trace):
        run = self.runs[workload, trace]
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        return run.stdout.splitlines(), json.loads(
            run.stdout.splitlines()[-1])

    def test_end_to_end_schema(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = self.result(workload, 0)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                for metric in SPEC["end_to_end"]:
                    value = result["metrics"][metric["name"]]
                    self.assertEqual(value["unit"], metric["unit"])
                    self.assertGreater(value["value"], 0, metric["name"])
                    printed = [line for line in lines if line.split()[:1]
                               == [metric["name"]]]
                    self.assertEqual(len(printed), 1, metric["name"])
                    fields = printed[0].split()
                    self.assertEqual(fields[2:4], [metric["unit"],
                                                   metric["better"]])
                    self.assertIn("n=", printed[0])
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in SPEC["end_to_end"]})

    def test_layers_fire_where_predicted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _lines, result = self.result(workload, 1)
                self.assertTrue(result["correct"])
                values = {name: metric["value"]
                          for name, metric in result["metrics"].items()}
                self.assertEqual(set(values), set(layers.METRICS))
                for name in FIRES[workload]:
                    self.assertGreater(values[name], 0, name)
                for name in ZERO[workload]:
                    self.assertEqual(values[name], 0, name)

    def test_checks_reject_corrupted_records(self):
        path = BENCH / "out" / "record-open_serve-tiny-3-trace0.json"
        record = json.loads(path.read_text())["record"]
        self.assertEqual(checks.check_record(record), [])
        corruptions = {
            "by_kind_total": lambda r: r["by_kind_total"] + 1,
            "query_bytes": lambda r: r["window_bytes"] + 100,
            "submitted": lambda r: r["submitted"] - 1,
            "runtime_completed": lambda r: r["runtime_completed"] + 1,
            "reference_docs": lambda r: r["reference_docs"] - 1,
        }
        for field, corrupt in corruptions.items():
            with self.subTest(field=field):
                bad = copy.deepcopy(record)
                bad[field] = corrupt(bad)
                self.assertTrue(checks.check_record(bad))
        other = dict(record, digest="0" * 64)
        self.assertTrue(checks.check_same([record, other], "digest"))

    def test_fails_without_the_program(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        run = bench(WORKLOADS[0], 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(run.returncode, 0)
        self.assertNotIn('"correct"', run.stdout)


if __name__ == "__main__":
    unittest.main()
