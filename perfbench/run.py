#!/usr/bin/env python3
"""coperf repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark from
source into .bench_build/perfbench (CMake, RelWithDebInfo), then runs one
workload: corun_matrix, group_truth, fleet_steady or fleet_churn, or `all`
of them one after another, each in its own process. The last line of a
workload's output is its result object; with --trace 1 the span file is
written to .bench_build/spans/<workload>.spans.tsv. See perfbench/NOTES.md
for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BUILD_JOBS = 4
WORKLOADS = ["corun_matrix", "group_truth", "fleet_steady", "fleet_churn"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    jobs = str(max(1, min(BUILD_JOBS, usable_cores())))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def commit():
    # Only a repository rooted at this checkout: never read a parent's.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, workload, args):
    """Runs one workload; returns its exit code. Prints its output, the
    result object last."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected"),
           "--spans", SPANS_DIR, "--commit", commit(),
           "--source-digest", source_digest()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: no result line (exit code {proc.returncode})")
    names = expected_metrics(args.trace)
    if names is not None and list(result["metrics"]) != names:
        fail(f"{workload}: reported metrics differ from BENCHMARK.json")
    print(lines[-1], flush=True)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(SPANS_DIR, exist_ok=True)
    if args.workload != "all":
        sys.exit(run_one(binary, args.workload, args))
    failed = []
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        if run_one(binary, workload, args) != 0:
            failed.append(workload)
    print("== all: " + ("every check passed" if not failed
                         else "FAILED " + " ".join(failed)))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
