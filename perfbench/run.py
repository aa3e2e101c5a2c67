#!/usr/bin/env python3
"""Build the benchmark binary and `rts-served` from source, then run one
workload.

    python3 perfbench/run.py --workload batch|serve|wire --seed N \
        --seconds S --trace 0|1 [--record PATH]

Run it from the root of a checkout. Builds go to `$CARGO_TARGET_DIR`
(default `.bench_build` in the checkout); cargo's output goes to stderr,
so the last line of stdout is the benchmark's result line. A traced run
writes its spans to `<target>/perfbench-trace-<workload>.tsv`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(target, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv:
        sys.exit(__doc__)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    server_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(server_manifest):
        sys.exit("perfbench: no Cargo.toml at the checkout root; run from a full checkout")
    cargo_build(target, "--manifest-path", server_manifest, "-p", "rts-served", "--bin", "rts-served")
    cargo_build(target, "--manifest-path", os.path.join(HERE, "Cargo.toml"))

    release = os.path.join(target, "release")
    workload = argv[argv.index("--workload") + 1]
    cmd = [
        os.path.join(release, "rts-perfbench"),
        *argv,
        "--server",
        os.path.join(release, "rts-served"),
        "--trace-out",
        os.path.join(target, f"perfbench-trace-{workload}.tsv"),
    ]
    # One engine worker and serial runtime loops, on every path.
    env = dict(os.environ, RTS_THREADS="1")
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
