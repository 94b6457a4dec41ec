#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload direct-rw --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (which compiles the program's libraries from src/)
into .bench_build/; later runs only rebuild what changed. Build output and
the benchmark's progress go to stderr. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}; its metric
names are checked against BENCHMARK.json before it is printed. Any failure
(missing sources, build error, self-test failure, crash, timeout) exits
non-zero without printing a result.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "los_perfbench", "los_perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    selftest = subprocess.run([os.path.join(BUILD, "los_perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60)
    if selftest.returncode:
        sys.exit("perfbench: oracle self-test failed")

    cmd = [os.path.join(BUILD, "los_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: missing %s, "
                 "unexpected %s" % (sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want))))
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            sys.exit("perfbench: metric %s is not finite" % name)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
