#!/usr/bin/env python3
"""Build and run one kbench workload from the repository root.

    python3 kbench/run.py --workload <serve|dense|durable|wide> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the library and the kbench program with CMake into
$CARGO_TARGET_DIR/kbench (default .bench_build/kbench), runs it,
relays its report and prints its JSON result as the last line. Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve", "dense", "durable", "wide")


def log(msg):
    print(f"kbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "kbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, left), check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step failed: {exc}")
            return False
        if done.returncode != 0:
            log(f"build step exited {done.returncode}: {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec.get(key, [])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "kbench")
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "kbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    except OSError as exc:
        log(f"cannot run kbench: {exc}")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        log(f"kbench exited {done.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        log("kbench printed no JSON result")
        return 1
    for line in lines[:-1]:
        print(line)
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
