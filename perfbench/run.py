#!/usr/bin/env python3
"""Builds and runs the PDoS lab benchmark.

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics of one run; with
--trace 1 it prints the per-layer metrics of a separate traced run,
including trace.overhead (traced wall / untraced wall of the same unit of
work). The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when
an output check fails, or when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig-sweep", "million-flow", "observed-roc")
# Every run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    """Builds both binaries; returns their directory, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release")


def run(binary, args, deadline):
    """Runs one binary; returns (exit code, parsed last JSON line or None)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {os.path.basename(binary)} timed out", file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode or 1, None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    bindir = build()
    if bindir is None:
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace == 0:
        code, res = run(os.path.join(bindir, "perfbench"),
                        common + ["--seconds", str(a.seconds)], deadline)
        if res is None:
            return 1
        metrics = res["metrics"]
    else:
        code, plain = run(os.path.join(bindir, "perfbench"), common + ["--once"], deadline)
        if plain is None:
            return 1
        traced_code, res = run(os.path.join(bindir, "perfbench-traced"), common + ["--once"], deadline)
        if res is None:
            return 1
        code = code or traced_code
        metrics = dict(res["metrics"])
        metrics["trace.overhead"] = {
            "value": res["unit_wall_s"] / plain["unit_wall_s"], "unit": "ratio"}
        for key in ("attempted", "failed"):
            res[key] += plain[key]
        res["correct"] = res["correct"] and plain["correct"]
    out = {"correct": res["correct"] and code == 0, "attempted": res["attempted"],
           "failed": res["failed"], "metrics": metrics}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
