"""The repo benchmark: run one workload, check its outputs, print its
metrics.

    python3 perfbench/run.py --workload hdk_build --seed 1 --seconds 5 \\
        --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the repo
root.  Every run executes the program in fresh processes
(``workloads.py``), so each record's peak RSS is its own:

* ``--trace 0``: one full run, plus set-up-only runs up to
  ``SETUP_SAMPLES``; ``setup_s`` is the median of the set-up samples.
  Prints every end-to-end metric.
* ``--trace 1``: an untraced and a traced run of the same seed; the
  traced one must reproduce the untraced digest (top-k lists and
  modelled bytes) exactly.  Prints every per-layer metric, including
  the tracing overhead.

Every metric line gives name, value, unit, better direction and sample
count; the last line is the JSON result.  The exit code is non-zero
when a check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from checks import check_record, check_same

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Set-up samples per untraced run (the median is reported): five
#: where set-up is short enough for machine noise to dominate it.
SETUP_SAMPLES = {"hdk_build": 5, "open_serve": 3, "churn_mixed": 3}

#: Whole-run budget; children are stopped when it runs out.
BUDGET_S = 170.0


class BenchError(Exception):
    """The program could not be run or produced no record."""


def spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def source_stamp() -> Dict[str, str]:
    """The commit when the checkout is a git work tree, and a digest of
    the program's and the benchmark's sources either way."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                 "HEAD"], capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    return {"commit": commit, "source_sha256": digest.hexdigest()}


class Runner:
    """Spawns workload processes within the run's time budget."""

    def __init__(self, args):
        self.args = args
        self.source = source_stamp()
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        existing = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = (src if not existing
                                  else os.pathsep.join([src, existing]))
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, part: str, trace_out: Optional[Path] = None) -> Dict:
        args = self.args
        command = [sys.executable, str(BENCH / "workloads.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--size", args.size,
                   "--part", part]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            result = subprocess.run(command, cwd=ROOT, env=self.env,
                                    capture_output=True, text=True,
                                    timeout=remaining)
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"{part} run exceeded the time budget") \
                from error
        if result.returncode != 0:
            raise BenchError(f"{part} run failed:\n{result.stderr[-4000:]}")
        lines = result.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{part} run printed no record")
        return json.loads(lines[-1])


def percentile_note(record: Dict) -> str:
    note = f"n={record['latency_samples']} ({record['latency_kind']}"
    if record["latency_kind"] == "wall":
        note += f", median of {len(record['blocks'])} blocks"
    return note + ")"


def end_to_end(main: Dict, setups: List[Dict]) -> Dict[str, tuple]:
    """name -> (value, samples note) for every end-to-end metric."""
    submitted = main["submitted"]
    index_samples = [record["index_s"] for record in setups
                     if "index_s" in record]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setups),
                    f"n={len(setups)} set-ups"),
        "index_s": (statistics.median(index_samples),
                    f"n={len(index_samples)} builds"),
        "index_bytes_per_key": (main["index_bytes"]
                                / main["keys_published"],
                                f"n={main['keys_published']} keys"),
        "storage_kb_per_peer": (main["storage_kb_per_peer"], "n=1"),
        "qps": (main["completed"] / main["query_wall_s"],
                f"n={main['completed']}"),
        "cpu_ms_per_query": (main["query_cpu_s"] * 1000.0 / submitted,
                             f"n={submitted}"),
        "latency_p50_ms": (main["latency_p50_ms"], percentile_note(main)),
        "latency_p99_ms": (main["latency_p99_ms"], percentile_note(main)),
        "bytes_per_query": (main["query_bytes"] / submitted,
                            f"n={submitted}"),
        "msgs_per_query": (main["query_msgs"] / submitted,
                           f"n={submitted}"),
        "overlap_at_10": (main["overlap_at_10"],
                          f"n={main['overlap_samples']}"),
        "answered_frac": (main["answered"] / submitted, f"n={submitted}"),
        "peak_rss_mb": (main["peak_rss_mb"], "n=1"),
    }


#: Printed and recorded, but not gated: each exists on one workload
#: only, and the gated set must be measured on every workload.
RECORD_ONLY = {
    "failed_frac": ("ratio", "lower"),
    "slo_qps": ("queries/s", "higher"),
    "maint_bytes_per_op": ("B", "lower"),
}


def record_only(main: Dict) -> Dict[str, tuple]:
    values = {"failed_frac": (main["failed"] / main["submitted"],
                              f"n={main['submitted']}")}
    if "slo_qps" in main:
        rungs = ", ".join(f"{rung['rate']:g}:{rung['p99_s']:.3f}s"
                          f"/{rung['failed']}" for rung in main["ladder"])
        values["slo_qps"] = (main["slo_qps"],
                             f"p99<={main['slo_p99_s']}s ladder[{rungs}]")
    if "maint_bytes_per_op" in main:
        values["maint_bytes_per_op"] = (main["maint_bytes_per_op"],
                                        f"n={main['maint_ops']} ops")
    return values


def print_metric(name: str, value: float, unit: str, better: str,
                 note: str) -> None:
    print(f"  {name:<34} {value:>16.6g} {unit:<10} {better:<7} {note}")


def digest_problems(record: Dict, source: str) -> List[str]:
    """Compare the run's digest with the last run of the same seed and
    sources in this checkout (and remember it for the next one)."""
    args = (record["workload"], record["size"], record["seed"], source[:16])
    path = OUT / "digests" / ("-".join(map(str, args)) + ".txt")
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        return check_same([record, {"digest": path.read_text().strip()}],
                          "digest")
    path.write_text(record["digest"] + "\n")
    return []


def untraced(runner: Runner, metrics_spec: List[Dict]):
    main = runner.child("all")
    setups = [main] + [runner.child("setup") for _ in
                       range(SETUP_SAMPLES[runner.args.workload] - 1)]
    problems = check_record(main) + check_same(setups, "setup_digest") \
        + digest_problems(main, runner.source["source_sha256"])
    values = end_to_end(main, setups)
    for metric in metrics_spec:
        value, note = values[metric["name"]]
        print_metric(metric["name"], value, metric["unit"],
                     metric["better"], note)
    print("  record only:")
    for name, (value, note) in record_only(main).items():
        unit, better = RECORD_ONLY[name]
        print_metric(name, value, unit, better, note)
    metrics = {metric["name"]: {"value": values[metric["name"]][0],
                                "unit": metric["unit"]}
               for metric in metrics_spec}
    return main, problems, metrics


def traced(runner: Runner, metrics_spec: List[Dict]):
    args = runner.args
    plain = runner.child("core")
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.size}-{args.seed}.jsonl"
    main = runner.child("core", trace_out=spans)
    problems = check_record(plain) + check_record(main) \
        + check_same([plain, main], "digest") \
        + digest_problems(main, runner.source["source_sha256"])
    values = dict(main["layers"])
    values["trace.overhead_s"] = main["wall_s"] - plain["wall_s"]
    print(f"  spans: {spans.relative_to(ROOT)}; traced wall "
          f"{main['wall_s']:.3f}s, untraced {plain['wall_s']:.3f}s")
    for metric in metrics_spec:
        print_metric(metric["name"], values[metric["name"]],
                     metric["unit"], metric["better"], "n=1")
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in metrics_spec}
    return main, problems, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the selftest's smoke size")
    args = parser.parse_args(argv)
    try:
        bench = spec()
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program sources under {ROOT / 'src'}")
        runner = Runner(args)
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} "
              f"size={args.size}")
        if args.trace:
            record, problems, metrics = traced(runner, bench["per_layer"])
        else:
            record, problems, metrics = untraced(runner,
                                                 bench["end_to_end"])
    except (BenchError, OSError, KeyError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    stamp = dict(record["stamps"], **runner.source)
    print("  stamps: " + json.dumps(stamp, sort_keys=True))
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("  checks: " + ("ok" if not problems
                          else f"{len(problems)} failed"))
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"record-{args.workload}-{args.size}-{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as out:
        json.dump({"record": record, "stamps": stamp, "metrics": metrics,
                   "problems": problems}, out, indent=1, sort_keys=True)
    print(json.dumps({"correct": not problems,
                      "attempted": record["submitted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
