#!/usr/bin/env bash
# Interleaved A/B timing gate on perfbench's gated workloads.
#
#   scripts/perfbench_ab.sh BASE_CHECKOUT OUT_DIR [SEED...]
#
# Run it from the root of the head checkout; BASE_CHECKOUT is a second
# checkout of the commit to compare against (for example made with
# `git worktree add --detach ../base main`). For each SEED (default
# 1-5) it runs `batch` and `serve` for 10 s on both sides, alternating
# per seed which side runs first (odd seeds run the base first), so host
# drift slower than one run hits both sides alike; a speed-up claim's
# runs are `scripts/perfbench_ab.sh BASE OUT $(seq 10) 97`. Each side
# builds from its own checkout into its own `.bench_build`. Records
# land in OUT_DIR/base and OUT_DIR/head, and `perfbench/compare.py`
# (its output also in OUT_DIR/compare.txt) then exits 2 on mismatched
# configurations and 1 when a median end-to-end metric is worse than
# its bound in BENCHMARK.json.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi
head=$(pwd)
base=$(cd "$1" && pwd)
mkdir -p "$2/base" "$2/head"
out=$(cd "$2" && pwd)
shift 2
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
    seeds=(1 2 3 4 5)
fi

side() { # side NAME CHECKOUT WORKLOAD SEED
    echo "perfbench_ab: $1 $3 seed $4" >&2
    (cd "$2" && CARGO_TARGET_DIR="$2/.bench_build" python3 perfbench/run.py \
        --workload "$3" --seed "$4" --seconds 10 --trace 0 \
        --record "$out/$1/$3-$4.json" >/dev/null)
}

for seed in "${seeds[@]}"; do
    for workload in batch serve; do
        if [ $((seed % 2)) -eq 1 ]; then
            side base "$base" "$workload" "$seed"
            side head "$head" "$workload" "$seed"
        else
            side head "$head" "$workload" "$seed"
            side base "$base" "$workload" "$seed"
        fi
    done
done
python3 perfbench/compare.py "$out/base" "$out/head" | tee "$out/compare.txt"
