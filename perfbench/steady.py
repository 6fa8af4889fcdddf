#!/usr/bin/env python3
"""Steadiness self-check: is every end-to-end metric steady on this commit?

    python3 perfbench/steady.py [--runs 10]

Runs `perfbench/run.py --trace 0` --runs times on every workload of
BENCHMARK.json, with seeds 1 to --runs and run_seconds per run, from the
root of a checkout. For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and their spread, the distance
between the quartiles as a share of the median, against the metric's
bound in BENCHMARK.json. A spread above a third of the bound is flagged;
a spread above the bound fails the check, and the metric is named as the
reason.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run.py failed on %s seed %d:\n%s"
                         % (workload, seed, out.stdout))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, seconds))
            print("  %s seed %d: %s" % (
                workload, seed,
                " ".join("%s=%.4g" % kv for kv in runs[-1].items())),
                flush=True)
        print("%s: %d runs of %d s" % (workload, args.runs, seconds))
        print("  %-16s %12s %12s %12s %8s %7s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            q1, med, q3, s = spread([r[m["name"]] for r in runs])
            verdict = ""
            if s > m["bound"]:
                verdict = "FAIL"
                failures.append("%s %s spread %.3f > bound %.3f"
                                % (workload, m["name"], s, m["bound"]))
            elif s > m["bound"] / 3:
                verdict = "above a third of its bound"
            print("  %-16s %12.5g %12.5g %12.5g %7.2f%% %6.1f%% %s" % (
                m["name"], q1, med, q3, 100 * s, 100 * m["bound"], verdict),
                flush=True)
    for f in failures:
        print("unsteady: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
