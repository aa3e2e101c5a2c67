#!/usr/bin/env python3
"""Compare two sets of run records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by `run.py ... --record PATH`, one
JSON file per run. Runs are paired by (workload, trace, seed). A pair
whose configuration differs (host core count, RTS_THREADS, build
profile, corpus, scale, corpus seed, seed, database count, cache
capacity, requests per pass or pinned CPU) is refused: the script exits 2 without
comparing anything. Otherwise it prints, per workload and metric, the
median over seeds on each side and the change, and marks end-to-end
metrics that got worse by more than their bound in BENCHMARK.json
(exit 1 if any did).
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
IDENTITY = [
    "nproc",
    "rts_threads",
    "profile",
    "corpus",
    "scale",
    "corpus_seed",
    "seed",
    "databases",
    "cache_capacity",
    "requests_per_pass",
    "cpu",
]


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        rec = run["record"]
        key = (rec["workload"], rec["trace"], rec["seed"])
        if key in runs:
            sys.exit(f"compare: two runs of {key} in {directory}")
        runs[key] = run
    return runs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    shared = sorted(set(base) & set(new))
    if not shared:
        sys.exit("compare: no (workload, trace, seed) present on both sides")
    for key in shared:
        a, b = base[key]["record"], new[key]["record"]
        differ = [k for k in IDENTITY if a.get(k) != b.get(k)]
        if differ:
            detail = ", ".join(f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in differ)
            print(f"compare: refusing {key}: records differ in {detail}", file=sys.stderr)
            sys.exit(2)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    worse = []
    for workload, trace in sorted({(w, t) for w, t, _ in shared}):
        keys = [k for k in shared if k[:2] == (workload, trace)]
        print(f"{workload} (trace {trace}, {len(keys)} seeds)")
        names = base[keys[0]]["result"]["metrics"].keys()
        for name in names:
            va = statistics.median(base[k]["result"]["metrics"][name]["value"] for k in keys)
            vb = statistics.median(new[k]["result"]["metrics"][name]["value"] for k in keys)
            change = (vb - va) / va if va else 0.0
            mark = ""
            if name in bounds:
                bound, better = bounds[name]
                loss = -change if better == "higher" else change
                if loss > bound:
                    mark = f"  WORSE than bound {bound}"
                    worse.append((workload, name))
            print(f"  {name:34s} {va:14.6g} -> {vb:14.6g}  {change:+8.2%}{mark}")
        bad = [k for k in keys if not (base[k]["result"]["correct"] and new[k]["result"]["correct"])]
        if bad:
            print(f"  incorrect runs: {bad}")
            worse.append((workload, "correct"))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
