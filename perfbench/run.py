#!/usr/bin/env python3
"""Build the uavf1 layered benchmark from source and run one workload.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload paper-suite --seed 1 \
        --seconds 25 --trace 0

The first call configures and builds the library and the benchmark
binary into `.bench_build/` at the checkout root (Release); later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Every other argument is passed
to the binary unchanged (see `perfbench/README.md`). Scratch artifacts
and traces are written under `.bench_build/work/`.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "uavf1_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_step(command, timeout):
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(command)}")
    if result.returncode != 0:
        fail(f"exit code {result.returncode}: {' '.join(command)}")


def build():
    if not (ROOT / "src" / "uavf1.hh").is_file():
        fail(f"no uavf1 library sources under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                  str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                 BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", str(BUILD), "--target",
              "uavf1_perfbench", "-j", str(os.cpu_count() or 1)],
             BUILD_TIMEOUT_S)


def main():
    build()
    command = [str(BINARY), *sys.argv[1:], "--work-dir",
               str(BUILD / "work")]
    try:
        result = subprocess.run(command, cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
