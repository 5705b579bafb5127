#include "bench_util.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "sim/obs/audit.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/timeseries.hh"
#include "sim/obs/trace_session.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace benchutil
{

void
printSection(const std::string &title, const std::string &body)
{
    std::printf("\n=== %s ===\n%s\n", title.c_str(), body.c_str());
    std::fflush(stdout);
}

bool
fastMode()
{
    const char *v = std::getenv("STARNUMA_BENCH_FAST");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

SimScale
benchScale()
{
    SimScale s = SimScale::sc1();
    if (fastMode()) {
        s.phases = 2;
        s.phaseInstructions = 100000;
    }
    return s;
}

std::vector<std::string>
benchWorkloads()
{
    // All eight workloads in fast mode too: fast runs shrink the
    // *scale* (benchScale), not the coverage, so the exported
    // BENCH_results.json always carries every workload.
    return workloads::workloadNames();
}

namespace
{

std::mutex resultsMu;
std::map<std::string, double> &
recordedResults()
{
    // Leaky on purpose: first touched after the atexit writer is
    // registered, so a static would be destroyed before it runs.
    static auto *results = new std::map<std::string, double>;
    return *results;
}

std::string benchJsonPath;
std::chrono::steady_clock::time_point benchStart;

/** Consume "--name=value" from argv; "" when absent. */
std::string
takeFlag(int *argc, char **argv, const char *name)
{
    std::string prefix = std::string("--") + name + "=";
    std::string value;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(),
                         prefix.size()) == 0)
            value = argv[i] + prefix.size();
        else
            argv[out++] = argv[i];
    }
    *argc = out;
    return value;
}

void
writeBenchJson()
{
    double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - benchStart)
            .count();
    std::string out = "{\n  \"schema\": \"starnuma-bench-v1\",\n";
    out += std::string("  \"fast_mode\": ") +
           (fastMode() ? "true" : "false") + ",\n";
    out += "  \"results\": {";
    bool first = true;
    {
        std::lock_guard<std::mutex> lock(resultsMu);
        for (const auto &[k, v] : recordedResults()) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    \"" + obs::jsonEscape(k) +
                   "\": " + obs::formatNumber(v);
        }
    }
    out += first ? "},\n" : "\n  },\n";
    char wall_buf[64];
    std::snprintf(wall_buf, sizeof(wall_buf), "%.3f", wall);
    out += std::string("  \"wall_time_s\": ") + wall_buf + "\n}\n";
    std::FILE *f = std::fopen(benchJsonPath.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "bench: cannot write %s\n",
                     benchJsonPath.c_str());
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
}

} // anonymous namespace

void
recordResult(const std::string &key, double value)
{
    std::lock_guard<std::mutex> lock(resultsMu);
    recordedResults()[key] = value;
}

void
initBench(int *argc, char **argv)
{
    static bool done = false;
    if (done)
        return;
    done = true;
    benchStart = std::chrono::steady_clock::now();

    std::string stats_out = takeFlag(argc, argv, "stats-out");
    if (!stats_out.empty()) {
        obs::StatsSink::global().start(stats_out);
        std::atexit([] { obs::StatsSink::global().write(); });
    }
    std::string trace_out = takeFlag(argc, argv, "trace-out");
    if (!trace_out.empty()) {
        obs::TraceSession::global().start(trace_out);
        std::atexit([] { obs::TraceSession::global().write(); });
    }
    std::string ts_out = takeFlag(argc, argv, "timeseries-out");
    if (!ts_out.empty()) {
        obs::TimeSeriesSink::global().start(ts_out);
        std::atexit([] { obs::TimeSeriesSink::global().write(); });
    }
    std::string audit_out = takeFlag(argc, argv, "audit-out");
    if (!audit_out.empty()) {
        obs::AuditSink::global().start(audit_out);
        std::atexit([] { obs::AuditSink::global().write(); });
    }
    benchJsonPath = takeFlag(argc, argv, "bench-json");
    if (benchJsonPath.empty())
        if (const char *v = std::getenv("STARNUMA_BENCH_JSON"))
            benchJsonPath = v;
    if (!benchJsonPath.empty())
        std::atexit(writeBenchJson);
}

} // namespace benchutil
} // namespace starnuma
