#include "driver/sweep.hh"

#include <map>

#include "driver/artifact_cache.hh"
#include "driver/artifact_key.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/trace_session.hh"
#include "sim/parallel.hh"

namespace starnuma
{
namespace driver
{

std::vector<ExperimentResult>
runSweep(const std::vector<SweepJob> &jobs)
{
    // Jobs with the same cell identity run once: first[c] is the
    // job that runs distinct cell c, cellOf[i] the cell job i reads.
    std::vector<std::size_t> first;
    std::vector<std::size_t> cellOf(jobs.size());
    {
        std::map<std::string, std::size_t> seen;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const SweepJob &job = jobs[i];
            auto [it, fresh] = seen.emplace(
                cellKeyText(job.workload, job.setup, job.scale,
                            job.singleSocket),
                first.size());
            if (fresh)
                first.push_back(i);
            cellOf[i] = it->second;
        }
    }
    std::vector<ExperimentResult> cells =
        ThreadPool::global().parallelMap<ExperimentResult>(
            first.size(), [&jobs, &first](std::size_t c) {
                std::size_t i = first[c];
                const SweepJob &job = jobs[i];
                obs::TraceSpan span(
                    "sweep " + job.workload + " / " +
                        (job.singleSocket ? "single-socket"
                                          : job.setup.name),
                    "sweep",
                    obs::TraceArgs()
                        .add("job",
                             static_cast<std::uint64_t>(i))
                        .str());
                if (job.singleSocket) {
                    ExperimentResult r;
                    r.metrics =
                        runSingleSocket(job.workload, job.scale);
                    return r;
                }
                return runExperiment(job.workload, job.setup,
                                     job.scale);
            });
    // Duplicates come after the job that ran their cell, so walking
    // backwards copies every duplicate before the original moves.
    std::vector<ExperimentResult> results(jobs.size());
    for (std::size_t i = jobs.size(); i-- > 0;) {
        std::size_t c = cellOf[i];
        if (first[c] == i)
            results[i] = std::move(cells[c]);
        else
            results[i] = cells[c];
    }
    // Cache-tier attribution for this sweep (DESIGN.md §16): the
    // counters are process-wide, so they are sampled after the join
    // barrier above and only while both the cache and the StatsSink
    // are on — an uncached sweep's stats artifact is unchanged.
    obs::StatsSink &sink = obs::StatsSink::global();
    if (sink.enabled() && ArtifactCache::global().enabled())
        sink.add("sweep.cache.", sweepCacheSnapshot());
    return results;
}

std::vector<SweepJob>
crossJobs(const std::vector<std::string> &workloads,
          const std::vector<SystemSetup> &setups,
          const SimScale &scale)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(workloads.size() * setups.size());
    for (const auto &w : workloads)
        for (const auto &s : setups)
            jobs.push_back({w, s, scale, false});
    return jobs;
}

} // namespace driver
} // namespace starnuma
