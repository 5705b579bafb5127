#!/bin/sh
# Export the headline bench results (Fig. 8 speedups, Table III
# IPC/MPKI, step-B replay throughput) as machine-readable JSON:
# runs the benches in STARNUMA_BENCH_FAST mode with --bench-json
# and merges the parts into BENCH_results.json at the repository
# root. The replay.replay_instr_per_sec entry is what the optional
# `bench` CI stage (scripts/run_ci.sh) guards against regression.
set -e
cd "$(dirname "$0")/.."

if [ ! -d build ]; then
    cmake -B build -G Ninja
fi
cmake --build build --target bench_reproduce \
    bench_replay_throughput bench_sweep_incremental

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

STARNUMA_BENCH_FAST=1 ./build/bench/bench_reproduce fig08 table3 \
    --bench-json="$tmp/reproduce.json" >/dev/null
# Replay throughput is wall-clock sensitive; measure best-of-3 so
# the committed baseline is the same statistic the CI bench guard
# (scripts/run_ci.sh) later measures — interference only ever
# lowers throughput, so the max over repeats is the honest value.
for i in 1 2 3; do
    STARNUMA_BENCH_FAST=1 ./build/bench/bench_replay_throughput \
        --bench-json="$tmp/replay$i.json" >/dev/null
done
# Incremental sweep: one cold-then-warm pass against a scratch store
# (the sweep.* wall-clock metrics get the same loose replay-class
# tolerance in bench_history.py, so a single measurement suffices).
STARNUMA_CACHE_DIR="$tmp/sweep_cache" STARNUMA_BENCH_FAST=1 \
    ./build/bench/bench_sweep_incremental \
    --bench-json="$tmp/sweep.json" >/dev/null

python3 - "$tmp/reproduce.json" \
    "$tmp"/replay[123].json "$tmp/sweep.json" <<'EOF'
import json
import os
import re
import sys

merged = {"schema": "starnuma-bench-v1", "fast_mode": True,
          "results": {}, "wall_time_s": 0.0,
          "wall_time_per_bench_s": {}}
for path in sys.argv[1:]:
    with open(path) as fh:
        part = json.load(fh)
    assert part["schema"] == "starnuma-bench-v1", part["schema"]
    merged["fast_mode"] = bool(part["fast_mode"])
    for key, val in part["results"].items():
        if key.startswith("replay.") and key in merged["results"]:
            val = max(val, merged["results"][key])
        merged["results"][key] = val
    merged["wall_time_s"] += part["wall_time_s"]
    # Per-bench wall time: replay repeats fold into one entry.
    bench = os.path.basename(path).rsplit(".", 1)[0]
    bench = re.sub(r"^(replay)\d+$", r"\1", bench)
    per = merged["wall_time_per_bench_s"]
    per[bench] = round(per.get(bench, 0.0) + part["wall_time_s"], 3)
merged["results"] = dict(sorted(merged["results"].items()))
merged["wall_time_s"] = round(merged["wall_time_s"], 3)
merged["wall_time_per_bench_s"] = dict(
    sorted(merged["wall_time_per_bench_s"].items()))
with open("BENCH_results.json", "w") as fh:
    json.dump(merged, fh, indent=2)
    fh.write("\n")
print("BENCH_results.json: %d results" % len(merged["results"]))
EOF
