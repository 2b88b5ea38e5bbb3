#!/usr/bin/env python3
"""Steadiness check: runs one workload N times with different seeds and
prints, for each metric, the median, the quartiles and the spread
(interquartile distance as a share of the median), next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload cold_lake --runs 10 [--first-seed 1]
        [--seconds 20] [--trace 0] [--save runs.json]

Run from the repository root. A spread below a third of the bound leaves
room for the run-to-run noise of another set of runs; the share of failed
operations must be the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="defaults to run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="write every run's result to this file")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("run with seed %d failed (exit %d)" % (seed,
                                                            proc.returncode))
        r = json.loads(lines[-1])
        results.append({"seed": seed, **r})
        print("seed %-4d attempted %-7d failed %-4d" %
              (seed, r["attempted"], r["failed"]), file=sys.stderr)

    shares = {r["failed"] / r["attempted"] for r in results}
    print("%s: %d runs of %d s, failed share %s" %
          (args.workload, len(results), seconds,
           "constant" if len(shares) == 1 else "VARIES %s" % sorted(shares)))
    print("%-38s %14s %14s %14s %8s %6s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "/bound"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        print("%-38s %14.6g %14.6g %14.6g %8.4f %6s %8s" %
              (name, med, q1, q3, spread, bound if bound else "-",
               "%.3f" % (spread / bound) if bound else "-"))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
