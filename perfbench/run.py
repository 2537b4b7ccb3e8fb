#!/usr/bin/env python3
"""Benchmark of the LAER-MoE simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator sources plus the laer_perfbench program)
into .bench_build/perfbench on first use. With --trace 0 it repeats the
workload's fixed amount of simulated work, each repetition in a fresh
single-threaded process, until --seconds have passed, checks every
repetition's outputs, and reports the end-to-end metrics over the run.
With --trace 1 it times a few untraced repetitions, then one traced
repetition that spans every call into a layer, and reports the
per-layer metrics. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
DIGEST_DIR = ROOT / ".bench_build" / "digests"

# Workloads, metric names and units: BENCHMARK.json at the repository root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MIN_REPS = 5           # aggregates need a handful of repetitions
TRACE_BASE_REPS = 3    # untraced repetitions a traced run is compared to
DEADLINE_S = 150.0     # start no repetition after this (exit within 180 s)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; compiler output goes to
    stderr so the result stays the last line of stdout."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    binary = BUILD_DIR / "laer_perfbench"
    if not binary.exists():
        fail(f"{binary} missing after the build")
    return binary


def run_child(binary, args, deadline):
    """One repetition in a fresh process; returns its JSON line."""
    timeout = max(1.0, deadline + 25.0 - time.monotonic())
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"repetition {args} did not finish in {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"repetition {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def nearest_rank(values, q):
    """The nearest-rank quantile laer_perfbench uses for its spans."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


def fingerprint(binary):
    """Host, compiler, build and source identity of this result."""
    info = json.loads(subprocess.run([str(binary), "--fingerprint"],
                                     capture_output=True, text=True,
                                     check=True).stdout)
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "none"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            sha = git.stdout.strip()
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            source.update(path.relative_to(ROOT).as_posix().encode())
            source.update(path.read_bytes())
    info.update({"nproc": os.cpu_count(), "cpu_model": model,
                 "git_sha": sha, "source_sha": source.hexdigest()[:16],
                 "threads": 1})
    return info


def check_digest(binary, workload, seed, tiny, digest):
    """The digest of a seed must repeat across runs of one binary; the
    first run of a seed records it. Returns False on a mismatch."""
    key = hashlib.sha256(binary.read_bytes()).hexdigest()
    DIGEST_DIR.mkdir(parents=True, exist_ok=True)
    path = DIGEST_DIR / f"{workload}-{seed}{'-tiny' if tiny else ''}.json"
    if path.exists():
        saved = json.loads(path.read_text())
        if saved["binary"] == key:
            return saved["digest"] == digest
    path.write_text(json.dumps({"binary": key, "digest": digest}))
    return True


def repetitions(binary, args, seconds, start, min_reps):
    """At least `min_reps` fixed-work repetitions, until `seconds` have
    passed, never past the deadline. The last repetition starts only if
    at least half of it fits in `seconds`, so runs overshoot by half a
    repetition at most."""
    reps = []
    deadline = start + DEADLINE_S
    while True:
        now = time.monotonic()
        typical = statistics.median(r["rep_s"] for r in reps) if reps else 0
        enough = (len(reps) >= min_reps
                  and now - start + typical / 2 >= seconds)
        if enough or (reps and now >= deadline):
            return reps
        rep = run_child(binary, args, deadline)
        rep["rep_s"] = time.monotonic() - now
        reps.append(rep)


def account(reps, workload, seed, tiny, binary):
    """Checks every repetition; a repetition whose output check fails,
    whose digest differs from the seed's, or whose retune count differs
    from the first repetition's, counts all its operations as failed.
    Returns (attempted, failed, digest)."""
    digest = reps[0]["digest"]
    retunes = len(reps[0]["retune_ms"])
    consistent = check_digest(binary, workload, seed, tiny, digest)
    attempted = failed = 0
    for rep in reps:
        attempted += rep["attempted"]
        if rep["check"]:
            print(f"check failed: {rep['check']}")
        if (rep["check"] or rep["digest"] != digest or not consistent
                or len(rep["retune_ms"]) != retunes):
            failed += rep["attempted"]
        else:
            failed += rep["failed"]
    if not consistent:
        print(f"digest of seed {seed} differs from an earlier run")
    return attempted, failed, digest


def replay_means(reps):
    """Each retune's mean solve time over the run's repetitions. Every
    repetition replays the same retunes on the same inputs (account()
    checks the digest and the retune count). One solve takes 30 µs to a
    few ms, and on a shared host the replays of one retune fall into a
    fast and a slow mode whose mix follows what runs beside the
    benchmark: a quantile of the pooled samples sits between the modes
    and jumps with the mix, while a mean over the replays moves with
    the host's speed only as much as the run's rates do."""
    return [statistics.fmean(times)
            for times in zip(*(r["retune_ms"] for r in reps))]


def end_to_end(reps, attempted, failed):
    def median(key):
        return statistics.median(r[key] for r in reps)

    # Every repetition does the same work, so a rate over the run is
    # its total over the total wall time. The host alternates between
    # fast and slow phases lasting tens of seconds; a median of such a
    # two-mode sample jumps with the mix, while totals average it.
    def rate(key):
        return sum(r[key] for r in reps) / sum(r["wall_s"] for r in reps)

    retunes = replay_means(reps)
    values = {
        "sim_s_per_wall_s": rate("sim_s"),
        "req_per_wall_s": rate("completed_ops"),
        "steps_per_wall_s": rate("steps"),
        "retune_ms_p50": nearest_rank(retunes, 0.5) if retunes else 0.0,
        "retune_ms_p90": nearest_rank(retunes, 0.9) if retunes else 0.0,
        "setup_s": median("setup_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "completed_ratio": (attempted - failed) / attempted,
    }
    beyond_p90 = len(retunes) - math.ceil(0.9 * len(retunes))
    print(f"repetitions: {len(reps)}; retunes: {len(retunes)}, each the "
          f"mean of {len(reps)} replays ({beyond_p90} beyond p90)")
    return values


def self_times(spans_path):
    """Self time per span name: a span's duration minus the time its
    child spans cover (children never overlap: one thread)."""
    spans = [json.loads(line) for line in Path(spans_path).open()]
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end_us"] - span["start_us"]
    totals = {}
    for span, child in zip(spans, covered):
        own = span["end_us"] - span["start_us"] - child
        calls, sum_us = totals.get(span["name"], (0, 0.0))
        totals[span["name"]] = (calls + 1, sum_us + own)
    return spans[0]["run"] if spans else "", totals


def traced(binary, common, seconds, start):
    base = repetitions(binary, common, seconds / 2, start, TRACE_BASE_REPS)
    out = run_child(binary, common + ["--traced"], start + DEADLINE_S)
    run_id, totals = self_times(out["spans"])
    print(f"traced run {run_id}: self time by span")
    for name, (calls, us) in sorted(totals.items(),
                                    key=lambda kv: -kv[1][1])[:16]:
        print(f"  {name:24s} {calls:8d} calls {us / 1e3:12.3f} ms")
    values = dict(out["layers"])
    untraced = statistics.median(r["wall_s"] for r in base)
    values["bench.trace_overhead_ratio"] = out["traced_wall_s"] / untraced
    return base, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (smoke_test.py)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running repetition instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    print("fingerprint: " + json.dumps(fingerprint(binary), sort_keys=True))
    start = time.monotonic()
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--out-dir={OUT_DIR}"] + (["--tiny"] if args.tiny else [])

    if args.trace:
        reps, values = traced(binary, common, args.seconds, start)
        units = PER_LAYER
    else:
        reps = repetitions(binary, common, args.seconds, start, MIN_REPS)
        values = None
        units = END_TO_END
    attempted, failed, digest = account(reps, args.workload, args.seed,
                                        args.tiny, binary)
    if values is None:
        values = end_to_end(reps, attempted, failed)
    print(f"digest {args.workload} seed={args.seed}: {digest}")
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
