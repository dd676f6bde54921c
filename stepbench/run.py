#!/usr/bin/env python3
"""Whole-step benchmark entry point.

Run from the root of the repository:

    python3 stepbench/run.py --workload sedov-simd --seed 1 --seconds 20 --trace 0

Builds the stepbench package (stepbench/CMakeLists.txt, which compiles the
sphexa library from src/) into .bench_build/stepbench, or under
$CARGO_TARGET_DIR when that is set, then runs one workload. The build log
goes to standard error; the last line of standard output is the result JSON
of the stepbench binary. A traced run (--trace 1) also writes its spans in
the trace-event format to <build>/traces/<workload>-seed<n>.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sedov-simd", "evrard-binned", "sedov-ranks4")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run may take 180 s; leave room for the build check and shutdown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(bench_dir: Path, build_dir: Path) -> Path:
    """Configure (once) and build the stepbench binary; return its path."""
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "stepbench", "-j", "4"],
        check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    return build_dir / "stepbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        print("stepbench: no sphexa sources next to the benchmark", file=sys.stderr)
        return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "stepbench"

    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"stepbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("stepbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"stepbench: run failed with code {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stdout)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("stepbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
