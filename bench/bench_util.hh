/**
 * @file
 * Shared helpers for the benches. bench_reproduce prints every
 * paper figure and table as a titled section (printSection) at
 * benchScale(); the google-benchmark microbenches (components,
 * replay throughput, incremental sweep) run through runBenchmarks(),
 * which only they link. Every bench records its headline numbers
 * with recordResult() for --bench-json, and initBench() turns on
 * the observability sinks. Set STARNUMA_CACHE_DIR to share traces
 * and results across processes through the artifact store.
 */

#ifndef STARNUMA_BENCH_BENCH_UTIL_HH
#define STARNUMA_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "driver/sweep.hh"

namespace starnuma
{
namespace benchutil
{

/** Print a titled section containing a rendered table. */
void printSection(const std::string &title, const std::string &body);

/**
 * True when the STARNUMA_BENCH_FAST environment variable is set;
 * benches then shrink the simulated scale for quick smoke runs.
 */
bool fastMode();

/** The scale benches run at (SimScale::sc1, shrunk in fast mode). */
SimScale benchScale();

/** The workloads evaluated by the paper-wide benches. */
std::vector<std::string> benchWorkloads();

/**
 * Record one scalar result under a dotted key (e.g.
 * "fig08.speedup_t16.bfs"). Results are written as sorted-key JSON
 * when a --bench-json=<path> flag (or STARNUMA_BENCH_JSON) is
 * active; no-op otherwise.
 */
void recordResult(const std::string &key, double value);

/**
 * Consume the observability flags and start the wall-time clock.
 * Call first thing in main(), before any sweep, so stats/trace
 * capture the sweep itself. Idempotent; runBenchmarks() calls it as
 * a fallback. Flags handled (removed from argv):
 *
 *   --stats-out=<path>       write the deterministic stats artifact
 *                            (same as STARNUMA_STATS_OUT)
 *   --trace-out=<path>       write a Chrome trace of the run
 *                            (same as STARNUMA_TRACE_OUT)
 *   --timeseries-out=<path>  write the deterministic per-epoch
 *                            time series, JSON or .csv
 *                            (same as STARNUMA_TIMESERIES_OUT)
 *   --audit-out=<path>       write the migration audit log, CSV or
 *                            .json (same as STARNUMA_AUDIT_OUT)
 *   --bench-json=<path>      write recorded results + wall time as
 *                            JSON (same as STARNUMA_BENCH_JSON)
 */
void initBench(int *argc, char **argv);

/**
 * Register the standard `--benchmark_*` flags, run the registered
 * benchmarks, and return as main() would. Defined in
 * gbench_runner.cc, which links google-benchmark.
 */
int runBenchmarks(int argc, char **argv);

} // namespace benchutil
} // namespace starnuma

#endif // STARNUMA_BENCH_BENCH_UTIL_HH
