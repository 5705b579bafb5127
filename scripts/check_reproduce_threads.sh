#!/bin/sh
# Determinism at the bench surface: the fast reproduction pass
# (STARNUMA_BENCH_FAST=1) must print byte-identical tables with one
# worker and with four.
#
#   scripts/check_reproduce_threads.sh build/bench/bench_reproduce
set -e
bin=${1:?usage: $0 path/to/bench_reproduce}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for n in 1 4; do
    STARNUMA_BENCH_FAST=1 STARNUMA_THREADS=$n "$bin" >"$tmp/t$n.txt"
done
test -s "$tmp/t1.txt"
diff "$tmp/t1.txt" "$tmp/t4.txt"
echo "bench_reproduce: fast pass identical at 1 and 4 threads" \
     "($(grep -c '^=== ' "$tmp/t1.txt") sections)"
