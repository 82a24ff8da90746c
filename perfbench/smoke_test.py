#!/usr/bin/env python3
"""Tiny-size smoke test of the layered benchmark.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json at `--scale tiny` with a
non-default seed, untraced and traced, and asserts that:

  * the last line of stdout is the result object, with `correct` true,
    no failed operation and at least one attempted;
  * an untraced run emits exactly the `end_to_end` metrics and a traced
    run exactly the `per_layer` metrics of BENCHMARK.json, each with
    its declared unit and a finite value;
  * the exact work counters (`count.*`) repeat between two traced runs
    with different seeds.

Exits non-zero at the first violation. Builds through perfbench/run.py.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 424242
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"smoke test FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, seed):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--scale", "tiny"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    what = f"{workload} trace={trace} seed={seed}"
    if out.returncode != 0:
        fail(f"{what}: exit code {out.returncode}\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        fail(f"{what}: output checks failed\n{out.stderr[-3000:]}")
    return result


def check_metrics(result, declared, what):
    expected = {m["name"]: m["unit"] for m in declared}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(n for n in set(expected) & set(emitted)
                       if expected[n] != emitted[n])
        fail(f"{what}: missing {missing}, extra {extra}, "
             f"wrong units {wrong}")
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            fail(f"{what}: {name} is not finite")


def counters(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.startswith("count.")}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        check_metrics(run(workload, 0, SEED), bench["end_to_end"],
                      f"{workload} untraced")
        traced = run(workload, 1, SEED)
        check_metrics(traced, bench["per_layer"], f"{workload} traced")
        again = run(workload, 1, SEED + 1)
        if counters(traced) != counters(again):
            fail(f"{workload}: work counters differ between runs: "
                 f"{counters(traced)} vs {counters(again)}")
        print(f"{workload}: ok", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
