/**
 * @file
 * Design-space ablations for the knobs §III-D calls out:
 *  - tracker counter width (T0 / T4 / T16), extending Fig 8a's
 *    T16-vs-T0 comparison across the full T_i family;
 *  - region size (§III-D4's precision-vs-overhead trade-off);
 *  - hardware-assisted vs conventional software TLB shootdowns
 *    (§III-D3's motivation for adopting DiDi-style support);
 *  - the literal random(sharers) destination of Algorithm 1 vs the
 *    stay-at-a-sharer refinement (DESIGN.md deviation).
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "driver/timing_sim.hh"
#include "sim/table.hh"

using namespace starnuma;
using benchutil::benchScale;

namespace
{

std::vector<std::string>
ablationWorkloads()
{
    if (benchutil::fastMode())
        return {"bfs"};
    return {"bfs", "sssp", "masstree"};
}

/** Table cell: @p setup's speedup over the baseline. */
std::string
speedupCell(const std::string &workload,
            const driver::SystemSetup &setup)
{
    return TextTable::num(benchutil::speedupOverBaseline(
                              workload, setup, benchScale()),
                          2) +
           "x";
}

/**
 * Table cell: StarNUMA's speedup with software TLB shootdowns. That
 * is a timing option, not a SystemSetup field, so this cell runs
 * steps B and C itself rather than through runExperiment.
 */
std::string
softwareShootdownCell(const std::string &workload)
{
    SimScale scale = benchScale();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    const auto &trace = driver::workloadTrace(workload, scale);
    auto placement = driver::TraceSim(setup, scale).run(trace);
    driver::TimingSim timing(setup, scale,
                             {.softwareShootdowns = true});
    auto m = timing.run(trace, placement);
    const auto &base = benchutil::cachedRun(
        workload, driver::SystemSetup::baseline(), scale);
    return TextTable::num(m.speedupOver(base.metrics), 2) + "x";
}

void
BM_Ablation(benchmark::State &state, const std::string &workload)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(benchutil::speedupOverBaseline(
            workload, driver::SystemSetup::starnuma(),
            benchScale()));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::initBench(&argc, argv);
    const driver::SystemSetup star = driver::SystemSetup::starnuma();

    std::vector<driver::SystemSetup> widths;
    for (int bits : {0, 4, 16}) {
        driver::SystemSetup s = star;
        s.name = "starnuma-t" + std::to_string(bits);
        s.migration.counterBits = bits;
        widths.push_back(s);
    }
    std::vector<driver::SystemSetup> regions;
    for (Addr kb : {4, 16, 64, 256}) {
        driver::SystemSetup s = star;
        s.name = "starnuma-r" + std::to_string(kb);
        s.regionBytes = kb * 1024;
        regions.push_back(s);
    }
    driver::SystemSetup literal = star;
    literal.name = "starnuma-literal";
    literal.migration.randomSharerReshuffle = true;

    // Fan every SystemSetup cell out over the worker pool up front;
    // the tables below are then memo hits.
    std::vector<driver::SystemSetup> setups{
        driver::SystemSetup::baseline(), star, literal};
    setups.insert(setups.end(), widths.begin(), widths.end());
    setups.insert(setups.end(), regions.begin(), regions.end());
    benchutil::prewarm(
        driver::crossJobs(ablationWorkloads(), setups, benchScale()));

    for (const auto &w : ablationWorkloads())
        benchmark::RegisterBenchmark(("Ablation/" + w).c_str(),
                                     BM_Ablation, w)
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    int rc = benchutil::runBenchmarks(argc, argv);

    // 1) Tracker width sweep.
    {
        TextTable t({"workload", "T0", "T4", "T16"});
        for (const auto &w : ablationWorkloads()) {
            std::vector<std::string> row{w};
            for (const auto &s : widths)
                row.push_back(speedupCell(w, s));
            t.addRow(row);
        }
        benchutil::printSection(
            "Ablation: tracker counter width T_i", t.str());
    }

    // 2) Region size sweep (§III-D4).
    {
        TextTable t({"workload", "4 KB", "16 KB", "64 KB",
                     "256 KB"});
        for (const auto &w : ablationWorkloads()) {
            std::vector<std::string> row{w};
            for (const auto &s : regions)
                row.push_back(speedupCell(w, s));
            t.addRow(row);
        }
        benchutil::printSection(
            "Ablation: region size (precision vs metadata "
            "overhead, Sec III-D4)",
            t.str());
    }

    // 3) Hardware vs software TLB shootdowns (§III-D3).
    {
        TextTable t({"workload", "hardware (DiDi-style)",
                     "software (IPI every core)"});
        for (const auto &w : ablationWorkloads())
            t.addRow({w, speedupCell(w, star),
                      softwareShootdownCell(w)});
        benchutil::printSection(
            "Ablation: TLB shootdown support (Sec III-D3 — "
            "software shootdowns erode the gains)",
            t.str());
    }

    // 4) Literal Algorithm 1 destination vs stay-at-a-sharer.
    {
        TextTable t({"workload", "stay-at-a-sharer (default)",
                     "literal random(sharers)"});
        for (const auto &w : ablationWorkloads())
            t.addRow({w, speedupCell(w, star), speedupCell(w, literal)});
        benchutil::printSection(
            "Ablation: narrow-region destination policy", t.str());
    }
    return rc;
}
