#!/usr/bin/env python3
"""Run one benchmark workload from a source checkout and print its result.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Builds pupil_bench into build-bench/ (incrementally; the first build takes
about a minute on 4 cores), runs workload W for S measured seconds, and
prints as the last line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (a traced run, which also writes a Chrome
trace under build-bench/runs/). Exits non-zero without printing a result
when the build or the run cannot complete, and non-zero after printing it
when a correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "pupil_bench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD],
                ["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "pupil_bench"]):
        subprocess.run(cmd, stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{args.workload}-{args.seed}-{args.trace}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", stem + ".json"]
    if args.trace:
        cmd += ["--trace", stem + ".trace.json"]
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    try:
        with open(stem + ".json") as f:
            result = json.load(f)["workloads"][0]
    except (OSError, ValueError, IndexError, KeyError):
        sys.exit(f"run.py: pupil_bench exited {proc.returncode} "
                 "without a result")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"run.py: {args.workload} did not report {m['name']} "
                     f"in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = proc.returncode == 0 and result["correct"]
    print(json.dumps({"correct": correct, "attempted": result["ops"],
                      "failed": result["ops_failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
