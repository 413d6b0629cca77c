#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark.

    python3 e2ebench/spread.py run OUT.json [--workloads a,b] [--seeds 1-10]
    python3 e2ebench/spread.py summary SET_A.json [SET_B.json]
    python3 e2ebench/spread.py layers SET_A.json SEED

`run` invokes the command in BENCHMARK.json once per (workload, seed), untraced,
with BENCHMARK.json's run length, and saves every report.  `summary` prints,
per workload and end-to-end metric, the median, the quartiles and the
interquartile range as a share of the median, next to the metric's bound.
Given a second set it also prints how far the second median moved against
the first (positive = worse), and compares the output digests of runs that
share a seed.  `layers` runs every workload traced on one seed and prints
the per-layer metrics, with the tracing overhead against that seed's
untraced run in the set file.  Tables print as markdown.  Run from the
repository root.
"""

import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(out, workloads, seeds):
    bench = load_bench()
    names = workloads or [w["name"] for w in bench["workloads"]]
    results = []
    for name in names:
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
            report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            results.append({
                "workload": name, "seed": seed, "exit": proc.returncode,
                "wall_s": round(time.time() - t0, 1), "digest": digest,
                "report": report,
            })
            print(f"{name} seed {seed}: exit {proc.returncode}, "
                  f"{results[-1]['wall_s']} s, {lines[-1] if lines else ''}",
                  flush=True)
    with open(out, "w") as f:
        json.dump({"finished": time.strftime("%Y-%m-%d %H:%M:%S"),
                   "results": results}, f, indent=1)


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def by_metric(results, workload, metric):
    return [r["report"]["metrics"][metric]["value"] for r in results
            if r["workload"] == workload and r["report"]]


def summary(paths):
    bench = load_bench()
    sets = []
    for p in paths:
        with open(p) as f:
            sets.append(json.load(f))
    for i, doc in enumerate(sets):
        results = doc["results"]
        bad = [r for r in results if not r["report"] or not r["report"]["correct"]
               or r["report"]["failed"]]
        print(f"- set {chr(65 + i)}: finished {doc['finished']}, {len(results)} runs, "
              f"{len(bad)} failed or incorrect")
    print()
    cols = ["workload", "metric", "bound"]
    for i in range(len(sets)):
        x = chr(65 + i)
        cols += [f"{x} median", f"{x} q1", f"{x} q3", f"{x} IQR/median"]
    if len(sets) == 2:
        cols.append("B worse than A by")
    print("| " + " | ".join(cols) + " |")
    print("|" + "---|" * len(cols))
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            row = [w["name"], m["name"], str(m["bound"])]
            meds = []
            if any(len(by_metric(d["results"], w["name"], m["name"])) < 2 for d in sets):
                continue
            for doc in sets:
                med, q1, q3, iqr = stats(by_metric(doc["results"], w["name"], m["name"]))
                meds.append(med)
                row += [f"{med:.5g}", f"{q1:.5g}", f"{q3:.5g}", f"{iqr:.4f}"]
            if len(sets) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                row.append(f"{worse:+.4f}")
            print("| " + " | ".join(row) + " |")
    if len(sets) == 2:
        a = {(r["workload"], r["seed"]): r["digest"] for r in sets[0]["results"]}
        pairs = [(r["workload"], r["seed"], r["digest"]) for r in sets[1]["results"]
                 if (r["workload"], r["seed"]) in a]
        diff = [p for p in pairs if a[(p[0], p[1])] != p[2]]
        print(f"\nDigests: {len(pairs) - len(diff)} of {len(pairs)} (workload, seed) "
              f"pairs print the same digest in both sets.")
        for p in diff:
            print(f"- differs: {p[0]} seed {p[1]}")


def layers(path, seed):
    """Traced run of every workload on one seed; per-layer metrics as a
    markdown table, with the tracing overhead against the untraced run of
    the same seed in the set file."""
    bench = load_bench()
    with open(path) as f:
        untraced = {(r["workload"], r["seed"]): r["report"] for r in json.load(f)["results"]}
    names = [w["name"] for w in bench["workloads"]]
    reports = {}
    for name in names:
        cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "1"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        reports[name] = json.loads(out.strip().splitlines()[-1])
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|" + "---|" * (len(names) + 2))
    for m in bench["per_layer"]:
        vals = [reports[n]["metrics"][m["name"]]["value"] for n in names]
        print(f"| `{m['name']}` | {m['unit']} | " + " | ".join(f"{v:.4g}" for v in vals) + " |")
    over = []
    for n in names:
        base = untraced[(n, seed)]["metrics"]["sim_s_per_wall_s"]["value"]
        over.append(base / reports[n]["metrics"]["trace.sim_s_per_wall_s"]["value"])
    print("| tracing overhead (untraced / traced rate) | x | "
          + " | ".join(f"{v:.3f}" for v in over) + " |")


def main(argv):
    if len(argv) >= 2 and argv[0] == "run":
        workloads, seeds = None, parse_seeds("1-10")
        rest = argv[2:]
        while rest:
            flag, value, rest = rest[0], rest[1], rest[2:]
            if flag == "--workloads":
                workloads = value.split(",")
            elif flag == "--seeds":
                seeds = parse_seeds(value)
            else:
                sys.exit(f"unknown flag {flag}")
        run(argv[1], workloads, seeds)
    elif len(argv) in (2, 3) and argv[0] == "summary":
        summary(argv[1:])
    elif len(argv) == 3 and argv[0] == "layers":
        layers(argv[1], int(argv[2]))
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
