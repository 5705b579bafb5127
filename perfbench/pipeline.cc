/**
 * @file
 * One pass of the pipeline benchmark (perfbench/run.py drives it).
 *
 * A pass pins the environment, optionally prepares (captures every
 * kernel's trace and runs the Fig 8 reference cells), then times
 * driver::runSweep over the requested cells zero or more times and
 * prints one JSON object: per-repetition wall and CPU seconds, the
 * process's peak RSS, the artifact-cache counters and, per cell, a
 * digest of its metricsSnapshot and placement.serialize() bytes with
 * the deterministic counts run.py folds into the workload digest.
 *
 * Usage:
 *   perfbench_pipeline --cells fig08|policy [--store DIR|off]
 *       [--scale sc1|tiny] [--prepare]
 *       [--reps N] [--seconds S] [--traced-reps N]
 *       [--seed N] [--spans FILE]
 * --traced-reps, --seed and --spans need perfbench_pipeline_traced.
 * With --reps 0 and no --seconds or --traced-reps the pass stops once
 * it is ready to time: run.py times set-up with such passes.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver/artifact_cache.hh"
#include "driver/experiment.hh"
#include "driver/metrics.hh"
#include "driver/sweep.hh"
#include "driver/system_setup.hh"
#include "sim/parallel.hh"
#include "sim/scale.hh"
#include "spans.hh"
#include "workloads/workload.hh"

using namespace starnuma;

namespace
{

struct Options
{
    std::string cells = "fig08";
    std::string store = "off";
    std::string scale = "sc1";
    bool prepare = false;
    int reps = 1;
    double seconds = 0.0;
    int tracedReps = 0;
    std::uint64_t seed = 1;
    std::string spans;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench_pipeline: %s\n", msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--prepare") {
            o.prepare = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--cells")
            o.cells = v;
        else if (a == "--store")
            o.store = v;
        else if (a == "--scale")
            o.scale = v;
        else if (a == "--reps")
            o.reps = std::atoi(v.c_str());
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--traced-reps")
            o.tracedReps = std::atoi(v.c_str());
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--spans")
            o.spans = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (o.cells != "fig08" && o.cells != "policy")
        usage("--cells must be fig08 or policy");
    if (o.scale != "sc1" && o.scale != "tiny")
        usage("--scale must be sc1 or tiny");
    if (o.reps < 0 || o.tracedReps < 0)
        usage("repetition counts must not be negative");
    if (!perfbench::tracingAvailable() &&
        (o.tracedReps > 0 || o.seed != 1 || !o.spans.empty()))
        usage("--traced-reps/--seed/--spans need the traced binary");
    return o;
}

/**
 * Pin every environment gate the simulator reads, before its first
 * use: no legacy trace cache (it has no code epoch and would turn a
 * cold pass warm), no stats/trace/time-series/audit sinks (an active
 * time-series or audit sink silently disables the result and state
 * cache tiers), a private artifact store or none, and a pool of
 * min(4, usable CPUs) workers. Returns the worker count.
 */
int
pinEnvironment(const Options &o)
{
    cpu_set_t cpus;
    int usable = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                     ? CPU_COUNT(&cpus)
                     : 1;
    int threads = std::clamp(usable, 1, 4);
    setenv("STARNUMA_TRACE_DIR", "off", 1);
    setenv("STARNUMA_CACHE_DIR", "off", 1);
    setenv("STARNUMA_THREADS", std::to_string(threads).c_str(), 1);
    for (const char *sink : {"STARNUMA_STATS_OUT", "STARNUMA_TRACE_OUT",
                             "STARNUMA_TIMESERIES_OUT",
                             "STARNUMA_AUDIT_OUT"})
        unsetenv(sink);
    ThreadPool::setGlobalThreads(threads);
    if (o.store == "off")
        driver::ArtifactCache::global().disable();
    else
        driver::ArtifactCache::global().enable(o.store);
    return threads;
}

double
monoSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<driver::SystemSetup>
setupsFor(const std::string &cells)
{
    using driver::SystemSetup;
    if (cells == "fig08")
        return {SystemSetup::baseline(), SystemSetup::starnuma()};
    return {SystemSetup::starnumaT0(),     SystemSetup::starnumaSwitched(),
            SystemSetup::starnumaHalfBW(), SystemSetup::starnumaSmallPool(),
            SystemSetup::baselineIsoBW(),  SystemSetup::starnumaStatic()};
}

/** FNV-1a 64: the benchmark's own digest, independent of src/. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(const std::string &s)
    {
        add(s.data(), s.size() + 1); // include the terminator
    }
};

/** Empty when the cell is well-formed, else why it failed. */
std::string
cellFault(const driver::ExperimentResult &r)
{
    if (r.metrics.instructions == 0)
        return "instructions is zero";
    obs::Snapshot snap = driver::metricsSnapshot(r.metrics);
    for (const auto &[path, value] : snap.values()) {
        char *end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0' || !std::isfinite(v))
            return path + " is not finite (" + value + ")";
    }
    return {};
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** Cells of one sweep as a JSON array (work outside the timed part). */
std::string
cellsJson(const std::vector<driver::SweepJob> &jobs,
          const std::vector<driver::ExperimentResult> &results)
{
    std::string out = "[";
    char buf[512];
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const driver::ExperimentResult &r = results[i];
        Digest d;
        obs::Snapshot snap = driver::metricsSnapshot(r.metrics);
        for (const auto &[path, value] : snap.values()) {
            d.add(path);
            d.add(value);
        }
        std::vector<std::uint8_t> placement = r.placement.serialize();
        d.add(placement.data(), placement.size());
        std::uint64_t records =
            driver::workloadTrace(jobs[i].workload, jobs[i].scale)
                .totalRecords();
        std::snprintf(
            buf, sizeof buf,
            "%s{\"kernel\": %s, \"setup\": %s, \"digest\": \"%016llx\", "
            "\"ipc\": %.17g, \"records\": %llu, "
            "\"migrated_pages\": %llu, \"mem_accesses\": %llu, "
            "\"fault\": ",
            i ? ", " : "", jsonString(jobs[i].workload).c_str(),
            jsonString(jobs[i].setup.name).c_str(),
            static_cast<unsigned long long>(d.h), r.metrics.ipc,
            static_cast<unsigned long long>(records),
            static_cast<unsigned long long>(
                r.placement.migratedPagesTotal),
            static_cast<unsigned long long>(r.metrics.memAccesses));
        out += buf;
        out += jsonString(cellFault(r)) + "}";
    }
    return out + "]";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    int threads = pinEnvironment(o);
    perfbench::setCaptureSeed(o.seed);
    SimScale scale = o.scale == "tiny" ? SimScale::tiny() : SimScale::sc1();
    std::vector<std::string> kernels = workloads::workloadNames();

    std::string json = "{\"threads\": " + std::to_string(threads) +
                       ", \"lanes\": " +
                       std::to_string(ThreadPool::global().size() + 1);

    // Untimed preparation: every kernel's trace in the in-process
    // memo, then the Fig 8 reference cells that normalize speedups.
    if (o.prepare) {
        ThreadPool::global().parallelFor(
            kernels.size(), [&](std::size_t i) {
                driver::workloadTrace(kernels[i], scale);
            });
        auto ref_jobs =
            driver::crossJobs(kernels, setupsFor("fig08"), scale);
        auto ref = driver::runSweep(ref_jobs);
        json += ", \"reference\": " + cellsJson(ref_jobs, ref);
    }
    // run.py measures set-up up to here, on the same monotonic clock.
    char buf[256];
    std::snprintf(buf, sizeof buf, ", \"ready_mono\": %.9f",
                  monoSeconds());
    json += buf;

    auto jobs = driver::crossJobs(kernels, setupsFor(o.cells), scale);
    json += ", \"reps\": [";
    // Untraced repetitions: at least --reps, and more while one as
    // long as the last would still end within --seconds of the first;
    // then --traced-reps more with span recording on.
    int untraced = 0, traced_done = 0;
    double timed0 = monoSeconds(), last_wall = 0.0;
    for (;;) {
        bool traced;
        if (untraced < o.reps ||
            monoSeconds() - timed0 + last_wall <= o.seconds)
            traced = false;
        else if (traced_done < o.tracedReps)
            traced = true;
        else
            break;
        perfbench::setRecording(traced);
        double cpu0 = cpuSeconds();
        double wall0 = monoSeconds();
        std::vector<driver::ExperimentResult> results =
            driver::runSweep(jobs);
        double wall = monoSeconds() - wall0;
        double cpu = cpuSeconds() - cpu0;
        last_wall = wall;
        perfbench::setRecording(false);
        std::snprintf(buf, sizeof buf,
                      "%s{\"wall_s\": %.9f, \"cpu_s\": %.9f, "
                      "\"cells\": ",
                      untraced + traced_done ? ", " : "", wall, cpu);
        json += buf;
        json += cellsJson(jobs, results) + "}";
        ++(traced ? traced_done : untraced);
    }
    json += "]";

    driver::ArtifactCache &cache = driver::ArtifactCache::global();
    std::snprintf(
        buf, sizeof buf,
        ", \"maxrss_mb\": %.3f, \"cache\": {\"bytes_read\": %llu, "
        "\"bytes_written\": %llu, \"result_hits\": %llu, "
        "\"result_misses\": %llu}",
        peakRssMb(),
        static_cast<unsigned long long>(cache.bytesRead()),
        static_cast<unsigned long long>(cache.bytesWritten()),
        static_cast<unsigned long long>(cache.resultHits()),
        static_cast<unsigned long long>(cache.resultMisses()));
    json += buf;
    if (!o.spans.empty() && !perfbench::writeSpans(o.spans)) {
        std::fprintf(stderr, "perfbench_pipeline: cannot write %s\n",
                     o.spans.c_str());
        return 1;
    }
    std::printf("%s}\n", json.c_str());
    return 0;
}
