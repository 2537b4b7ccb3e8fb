#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py --tiny
twice untraced and once traced, and checks that each run passes its
output checks, that every metric BENCHMARK.json names prints as a
finite number with its unit, and that the simulated digest repeats
across the two untraced runs of one seed. Exits non-zero on the first
failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {' '.join(cmd[1:])}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    digest = [line for line in lines if line.startswith("digest ")]
    return json.loads(lines[-1]), digest


def check(result, expected, where):
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {where}: output checks failed: {result}")
    if result["attempted"] < 1:
        sys.exit(f"FAIL {where}: nothing attempted")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        wrong = sorted(n for n in want if n in got and got[n] != want[n])
        sys.exit(f"FAIL {where}: metrics/units differ from BENCHMARK.json:"
                 f" missing {sorted(set(want) - set(got))},"
                 f" extra {sorted(set(got) - set(want))},"
                 f" wrong units {wrong}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"FAIL {where}: {name} = {value!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        first, digest_a = run(workload, 0)
        second, digest_b = run(workload, 0)
        check(first, spec["end_to_end"], f"{workload} untraced")
        check(second, spec["end_to_end"], f"{workload} untraced")
        if not digest_a or digest_a != digest_b:
            sys.exit(f"FAIL {workload}: digest did not repeat: "
                     f"{digest_a} vs {digest_b}")
        traced, _ = run(workload, 1)
        check(traced, spec["per_layer"], f"{workload} traced")
        print(f"ok {workload}: {digest_a[0]}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
