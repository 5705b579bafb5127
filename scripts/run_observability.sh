#!/bin/sh
# Smoke-test the observability pipeline end to end: build, run one
# traced fast-mode experiment sweep (bench_reproduce fig08), and assert
# that every artifact exists and parses —
#   stats.json       deterministic stats snapshot
#                    (STARNUMA_STATS_OUT)
#   trace.json       Chrome trace with phase duration events,
#                    migration instants, and link-utilization
#                    counters (STARNUMA_TRACE_OUT)
#   timeseries.json  deterministic per-epoch metric streams
#                    (STARNUMA_TIMESERIES_OUT)
#   audit.csv        Algorithm-1 migration decision log
#                    (STARNUMA_AUDIT_OUT)
#   report.txt       the joined run-explain report
#                    (scripts/starnuma_report.py)
# Artifacts land in ${STARNUMA_OBS_DIR:-obs_out}/.
set -e
cd "$(dirname "$0")/.."

if [ ! -d build ]; then
    cmake -B build -G Ninja
fi
cmake --build build --target bench_reproduce

out=${STARNUMA_OBS_DIR:-obs_out}
mkdir -p "$out"

STARNUMA_BENCH_FAST=1 \
STARNUMA_STATS_OUT="$out/stats.json" \
STARNUMA_TRACE_OUT="$out/trace.json" \
STARNUMA_TIMESERIES_OUT="$out/timeseries.json" \
STARNUMA_AUDIT_OUT="$out/audit.csv" \
    ./build/bench/bench_reproduce fig08 >/dev/null

python3 - "$out/stats.json" "$out/trace.json" \
    "$out/timeseries.json" "$out/audit.csv" <<'EOF'
import csv
import json
import sys

stats_path, trace_path, ts_path, audit_path = sys.argv[1:5]
stats = json.load(open(stats_path))
assert stats, "stats snapshot is empty"

trace = json.load(open(trace_path))["traceEvents"]
for e in trace:
    assert "ph" in e and "pid" in e and "name" in e, e
phases = {e["ph"] for e in trace}
assert "X" in phases, "no duration events"
migrations = [e for e in trace
              if e["ph"] == "i" and e["name"] == "migration"]
assert migrations, "no migration instant events"
link = [e for e in trace
        if e["ph"] == "C" and e["name"].endswith(".linkUtil")]
assert link, "no link-utilization counters"

series = json.load(open(ts_path))
assert series, "time series export is empty"
for key, col in series.items():
    assert set(col) == {"t", "v"}, (key, col.keys())
    assert len(col["t"]) == len(col["v"]), key
timing = [k for k in series if ".timing.phase" in k]
replay = [k for k in series if ".traceSim." in k]
assert timing, "no timing-side (per-epoch) streams"
assert replay, "no replay-side (per-phase) streams"

with open(audit_path) as fh:
    audit = list(csv.DictReader(fh))
assert audit, "audit log is empty"
branches = {r["branch"] for r in audit}
for r in audit:
    assert r["run"] and r["reason"], r
assert branches & {"toPool", "toSharer"}, branches

print("observability OK: %d stats, %d trace events "
      "(%d migration instants, %d link-util samples), "
      "%d streams, %d audit records (%d branches)"
      % (len(stats), len(trace), len(migrations), len(link),
         len(series), len(audit), len(branches)))
EOF

python3 scripts/starnuma_report.py \
    --stats "$out/stats.json" \
    --timeseries "$out/timeseries.json" \
    --audit "$out/audit.csv" \
    -o "$out/report.txt"
python3 - "$out/report.txt" <<'EOF'
import sys

report = open(sys.argv[1]).read()
assert "Phases:" in report, "report lacks a phase table"
assert "Decision branches" in report, "report lacks decisions"
assert "Top migrated pages" in report, "report lacks page ranking"
assert "vs base" in report, "report lacks baseline attribution"
print("report OK: %d lines" % len(report.splitlines()))
EOF
echo "artifacts in $out/"
