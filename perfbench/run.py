#!/usr/bin/env python3
"""End-to-end benchmark of rprism: build, run one workload, print JSON.

Run from the root of the repository:

    python3 perfbench/run.py --workload corpus-ondisk --seed 1 \
        --seconds 25 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src)
into .bench_build/ on first use, then runs the benchmark program
(perfbench/main.cpp).
--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics and writes every span to .bench_build/spans/. The last
line of stdout is one JSON object; every line before it is for people.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
WORKLOADS = ("corpus-ondisk", "threads-churn", "objects-regress")

# The budget a run has (seconds), with and without a fresh build.
RUN_BUDGET = 175
BUILD_BUDGET = 880


def log(message):
    print(message, file=sys.stderr, flush=True)


def configured():
    return os.path.exists(os.path.join(CMAKE_DIR, "Makefile"))


def build():
    """Configures once, then brings the build up to date. True on success."""
    steps = []
    if not configured():
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j4", "--target",
                  "perfbench"])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    budget = RUN_BUDGET if configured() else BUILD_BUDGET
    if not build():
        return 1
    remaining = budget - (time.monotonic() - start)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(BUILD, "work-" + tag)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        command += ["--spans-out", os.path.join(BUILD, "spans", tag + ".json")]
    # The default configuration only: no format, fault or retry overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RPRISM_")}
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                env=env, timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %.0f s" % remaining)
        return 1
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        log("perfbench: benchmark program exited with %d" % result.returncode)
        return 1

    report = json.loads(lines[-1])
    mismatch = expected_metrics(args.trace) ^ set(report["metrics"])
    if mismatch:
        log("perfbench: metrics differ from BENCHMARK.json: %s" %
            ", ".join(sorted(mismatch)))
        report["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
