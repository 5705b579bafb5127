#!/bin/sh
# Regenerate every result in EXPERIMENTS.md: build, test, and run
# one bench binary per paper figure/table. Outputs land in
# test_output.txt and bench_output.txt at the repository root.
# Set STARNUMA_BENCH_FAST=1 for a quick smoke pass.
set -e
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

# The bench binaries share one throwaway artifact store, so each
# workload is captured once for the whole suite. Store keys carry
# the code epoch; the store is removed on exit.
STARNUMA_CACHE_DIR=$(mktemp -d)
export STARNUMA_CACHE_DIR
trap 'rm -rf "$STARNUMA_CACHE_DIR"' EXIT
trap 'exit 1' INT TERM
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] && "$b"
done 2>&1 | tee bench_output.txt
