#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about a minute).

    python3 e2ebench/smoke.py

Runs every workload of BENCHMARK.json in --short mode (a tenth of each
measured window): twice untraced and once traced, all on one seed.  It
checks that each run exits 0 and that its last line is the report: exactly
the keys correct/attempted/failed/metrics, correct with no failed
operation, and every end-to-end (untraced) or per-layer (traced) metric of
BENCHMARK.json present with its unit and a finite value.  It also checks
that the three runs of a workload print the same output digest, that the
traced run wrote its Chrome trace, and that a bad argument is refused.
Run from the repository root; exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

SEED = 1


def fail(msg):
    sys.exit(f"smoke: FAILED: {msg}")


def run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return report, digest, proc.stderr


def validate(report, expected, where):
    if sorted(report) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{where}: report keys {sorted(report)}")
    if not report["correct"] or report["failed"] != 0 or report["attempted"] < 1:
        fail(f"{where}: correct={report['correct']} attempted={report['attempted']} "
             f"failed={report['failed']}")
    metrics = report["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        fail(f"{where}: metrics {sorted(metrics)}")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{where}: {m['name']} unit {got['unit']!r}, want {m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"{where}: {m['name']} value {got['value']!r}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        digests = []
        for trace, expected in ((0, bench["end_to_end"]), (0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            report, digest, stderr = run(bench, name, trace)
            validate(report, expected, f"{name} trace={trace}")
            if any(l.startswith("check ") and "FAILED" in l for l in stderr.splitlines()):
                fail(f"{name}: an output check failed:\n{stderr}")
            digests.append(digest)
        if len(set(digests)) != 1:
            fail(f"{name}: digests differ across runs of seed {SEED}: {digests}")
        trace_file = f"e2ebench/_out/trace-{name}-s{SEED}.json"
        with open(trace_file) as f:
            if not json.load(f)["traceEvents"]:
                fail(f"{trace_file} has no spans")
        print(f"smoke: {name} ok (digest {digests[0]})", flush=True)
    bad = subprocess.run(bench["command"] + ["--workload", "no_such_workload"],
                         capture_output=True, text=True)
    if bad.returncode == 0:
        fail("a bad argument was accepted")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    if not os.path.exists("BENCHMARK.json"):
        fail("run from the repository root")
    main()
