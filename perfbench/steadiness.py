#!/usr/bin/env python3
"""Runs one workload repeatedly and prints each metric's spread.

    python3 perfbench/steadiness.py --workload served-rw --runs 10 --first-seed 1

Each run goes through perfbench/run.py with its own seed (first-seed,
first-seed + 1, ...). For every metric the tool prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median, next to the bound BENCHMARK.json gives it; a
metric whose spread exceeds a third of its bound is flagged. It also prints
the share of failed operations in each run. --out FILE keeps the raw
results as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode:
            sys.exit("run with seed %d failed (exit %d)" % (seed, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]),
              flush=True)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(result) + "\n")

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("failed share per run: %s" % shares)
    print("%-40s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above bound/3"
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, median, q1, q3, spread,
               "-" if bound is None else bound, flag))


if __name__ == "__main__":
    main()
