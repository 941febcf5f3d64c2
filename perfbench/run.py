#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

Usage, from the root of the repo:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/ as its own CMake package (Release) in the build
directory named by CARGO_TARGET_DIR (default .bench_build), builds
crayfish_perfbench from the repo's src/, and runs it. The binary's output is
passed through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}, whose metric names and units
are checked here against BENCHMARK.json. Spans of the run are written to
<build dir>/spans/. Exits non-zero, without a result line, when the build,
the run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table4_overload", "sustained_rpc", "flash_crowd_fleet",
             "real_inference"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no src/ under {ROOT}; the benchmark builds the repo from source")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "crayfish_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "crayfish_perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def git_describe():
    # Only a checkout's own .git: never describe an enclosing repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() or "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not a JSON result: " + line[:200])
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("result must have exactly correct/attempted/failed/metrics")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong units {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    out = build_dir()
    binary = build(out)
    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(
        spans_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans_out", spans, "--git_describe", git_describe()]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines or not lines[-1]:
        sys.stderr.write(r.stdout)
        fail(f"benchmark exited with code {r.returncode}")
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
