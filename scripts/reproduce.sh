#!/bin/sh
# Regenerate every result in EXPERIMENTS.md: build, test, run
# bench_reproduce (every paper figure and table from one sweep),
# then the three google-benchmark microbenches. Outputs land in
# test_output.txt and bench_output.txt at the repository root.
# Set STARNUMA_BENCH_FAST=1 for a quick smoke pass.
set -e
cd "$(dirname "$0")/.."

# No -G: reuse whatever generator an existing build/ was made with.
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build 2>&1 | tee test_output.txt

# The benches share one throwaway artifact store, so the
# microbenches reuse the traces bench_reproduce captured. Store keys
# carry the code epoch; the store is removed on exit.
STARNUMA_CACHE_DIR=$(mktemp -d)
export STARNUMA_CACHE_DIR
trap 'rm -rf "$STARNUMA_CACHE_DIR"' EXIT
trap 'exit 1' INT TERM
for b in bench_reproduce bench_components bench_replay_throughput \
         bench_sweep_incremental; do
    "build/bench/$b"
done 2>&1 | tee bench_output.txt
