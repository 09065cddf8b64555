#!/usr/bin/env python3
"""Builds and runs the praft benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds perfbench/ (and the praft sources it
compiles) into .bench_build/perfbench, runs the workload, echoes the
benchmark's report, and prints as the last line one JSON object with the
metrics BENCHMARK.json names: its end_to_end metrics with --trace 0, its
per_layer metrics with --trace 1. Exits non-zero when the build fails, a
correctness check fails, or a named metric is missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "cluster.h")):
        fail("praft sources (src/) not found next to perfbench/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, *generator],
        ["cmake", "--build", BUILD, "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"benchmark did not end with a JSON result (exit {proc.returncode})")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the {args.workload} report")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} reported in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"] and proc.returncode == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
