#!/usr/bin/env python3
"""The benchmark's own test: exactness and output checks.

    python3 perfbench/check_exact.py [--seed N] [--second-seed M]

For every workload it runs one seed twice untraced and twice traced
(1-second windows) and asserts that the quality metrics (`link_acc`,
`consult_rate`, `ex`) and the exact per-layer counts are identical
across the two runs, and that every run passed its output checks. It
then runs a second seed, untraced, which must pass its output checks
too. Exits 1 on the first failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch", "serve", "wire"]
QUALITY = ["link_acc", "consult_rate", "ex"]
EXACT = [
    "simlm.steps_per_req",
    "core.flags_per_req",
    "core.consults_per_req",
    "serve.cache.miss_rate",
    "serve.cache.evictions_per_req",
    "serve.checkpoints_per_req",
    "serve.restores_per_req",
    "serve.feedback_rounds_per_req",
    "serve.checkpoint.bytes_per_park",
    "wire.bytes_per_req",
    "wire.frames_per_req",
]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{workload} seed {seed} trace {trace} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(done.stderr)
        fail(f"{workload} seed {seed} trace {trace}: output checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def fail(msg):
    print(f"check_exact: FAIL: {msg}")
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--second-seed", type=int, default=97)
    args = ap.parse_args()
    for workload in WORKLOADS:
        for trace, names in ((0, QUALITY), (1, EXACT)):
            a = run(workload, args.seed, trace)
            b = run(workload, args.seed, trace)
            for name in names:
                if a[name] != b[name]:
                    fail(f"{workload}: {name} differs across two runs of seed {args.seed}: {a[name]} vs {b[name]}")
            print(f"{workload} trace {trace}: {len(names)} metrics identical across two runs of seed {args.seed}")
        run(workload, args.second_seed, 0)
        print(f"{workload}: output checks pass on seed {args.second_seed}")
    print("check_exact: OK")


if __name__ == "__main__":
    main()
