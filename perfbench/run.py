#!/usr/bin/env python3
"""Build and run one perfbench workload; see perfbench/README.md.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the sp2b library and the
benchmark (CMake, Release) under $CARGO_TARGET_DIR or .bench_build/,
runs the workload, and passes its output through; the last stdout line
is the JSON result. Exits non-zero, printing no result, when the build,
the run or the metric-name check against BENCHMARK.json fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4"],
                   check=True, stdout=sys.stderr)


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    proc = subprocess.run(
        [os.path.join(build_dir, "sp2b_perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", os.path.join(build_dir, "out")],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"sp2b_perfbench exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    missing = expected_names(args.trace) ^ set(result["metrics"])
    if missing:
        print(f"metric names differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
