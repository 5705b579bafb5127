/**
 * @file
 * Tests for the §V-F replication alternative: candidate selection
 * (read-only, widely shared, hottest-first under a capacity
 * budget), the timing integration (reads become local; a write
 * de-replicates), and the software-shootdown ablation option.
 */

#include <gtest/gtest.h>

#include "core/replication.hh"
#include "driver/experiment.hh"
#include "driver/timing_sim.hh"
#include "driver/trace_sim.hh"

namespace starnuma
{
namespace
{

/** 4 sockets x 2 cores test scale. */
SimScale
tinyScale()
{
    SimScale s;
    s.sockets = 16;
    s.socketsPerChassis = 4;
    s.coresPerSocket = 4;
    s.phases = 2;
    s.phaseInstructions = 20000;
    return s;
}

/**
 * Trace with one read-only page shared by all sockets, one
 * read-write page shared by all sockets, and private pages.
 */
trace::WorkloadTrace
replicationTrace(const SimScale &scale, int ro_pages = 1)
{
    trace::WorkloadTrace t;
    t.threads = scale.threads();
    t.instructionsPerThread =
        static_cast<std::uint64_t>(scale.phases) *
        scale.phaseInstructions;
    t.perThread.resize(t.threads);
    Addr ro_base = 0x10000000;
    Addr rw_base = ro_base + ro_pages * pageBytes;
    Addr priv_base = rw_base + pageBytes;
    t.footprintBytes = (ro_pages + 1 + t.threads) * pageBytes;
    for (ThreadId th = 0; th < t.threads; ++th) {
        t.firstTouches.push_back(
            {pageNumber(priv_base) + PageNum(th), th});
        std::uint64_t instr = 50;
        for (int i = 0; i < 300; ++i) {
            t.perThread[th].emplace_back(
                instr, ro_base + (i % ro_pages) * pageBytes +
                           (i % 64) * blockBytes,
                false);
            instr += 40;
            t.perThread[th].emplace_back(
                instr, rw_base + (i % 64) * blockBytes, i % 8 == 0);
            instr += 40;
        }
    }
    t.writtenPages.push_back(pageNumber(rw_base));
    return t;
}

TEST(Replication, SelectsReadOnlySharedPagesOnly)
{
    SimScale s = tinyScale();
    auto trace = replicationTrace(s);
    core::ReplicationConfig cfg;
    auto plan = core::planReplication(trace, s.coresPerSocket,
                                      s.sockets, cfg);
    EXPECT_TRUE(plan.isReplicated(pageNumber(0x10000000)));
    EXPECT_FALSE(
        plan.isReplicated(pageNumber(0x10000000 + pageBytes)));
    EXPECT_EQ(plan.rejectedReadWrite, 1u);
    EXPECT_GT(plan.capacityOverhead, 0.0);
}

TEST(Replication, CapacityBudgetLimitsReplicas)
{
    SimScale s = tinyScale();
    // 64 read-only shared pages, but a budget of ~0.2x footprint.
    auto trace = replicationTrace(s, 64);
    core::ReplicationConfig cfg;
    cfg.capacityBudget = 0.2;
    auto plan = core::planReplication(trace, s.coresPerSocket,
                                      s.sockets, cfg);
    EXPECT_GT(plan.rejectedCapacity, 0u);
    EXPECT_LE(plan.capacityOverhead, cfg.capacityBudget + 1e-9);
    EXPECT_GT(plan.replicated.size(), 0u);
}

TEST(Replication, SharerThresholdFiltersNarrowPages)
{
    SimScale s = tinyScale();
    auto trace = replicationTrace(s);
    core::ReplicationConfig cfg;
    cfg.sharerThreshold = 64; // impossible: more than sockets
    auto plan = core::planReplication(trace, s.coresPerSocket,
                                      s.sockets, cfg);
    EXPECT_TRUE(plan.replicated.empty());
}

TEST(Replication, TimingMakesReplicatedReadsLocal)
{
    SimScale s = tinyScale();
    auto trace = replicationTrace(s);
    driver::SystemSetup plain = driver::SystemSetup::baseline();
    driver::SystemSetup repl =
        driver::SystemSetup::baselineReplication();

    driver::TraceSim plain_t(plain, s);
    auto plain_p = plain_t.run(trace);
    driver::TimingSim plain_sim(plain, s);
    auto plain_m = plain_sim.run(trace, plain_p);

    driver::TraceSim repl_t(repl, s);
    auto repl_p = repl_t.run(trace);
    EXPECT_FALSE(repl_p.replication.replicated.empty());
    driver::TimingSim repl_sim(repl, s);
    auto repl_m = repl_sim.run(trace, repl_p);

    // Reads of the replicated page are local now.
    EXPECT_GT(repl_m.mix[static_cast<int>(
                  driver::AccessType::Local)],
              plain_m.mix[static_cast<int>(
                  driver::AccessType::Local)]);
}

TEST(Replication, EndToEndFmiBenefits)
{
    // FMI's index is read-only and shared by everyone: the ideal
    // replication case (until capacity is charged).
    SimScale s;
    s.phases = 2;
    s.phaseInstructions = 100000;
    auto base = driver::runExperiment(
        "fmi", driver::SystemSetup::baseline(), s);
    auto repl = driver::runExperiment(
        "fmi", driver::SystemSetup::baselineReplication(), s);
    EXPECT_GT(repl.placement.replication.replicated.size(), 0u);
    EXPECT_GE(repl.metrics.speedupOver(base.metrics), 1.0);
    EXPECT_GT(repl.metrics.mix[static_cast<int>(
                  driver::AccessType::Local)],
              base.metrics.mix[static_cast<int>(
                  driver::AccessType::Local)]);
}

TEST(SoftwareShootdowns, ErodePerformance)
{
    SimScale s;
    s.phases = 3;
    s.phaseInstructions = 100000;
    driver::SystemSetup star = driver::SystemSetup::starnuma();
    driver::SystemSetup star_sw = star;
    star_sw.softwareShootdowns = true;
    auto hw = driver::runExperiment("bfs", star, s);
    auto sw = driver::runExperiment("bfs", star_sw, s);

    // The shootdown model is a step-C knob: step B's decisions are
    // the same, and IPIs on every core per migrated page must not
    // help, and normally hurt (§III-D3).
    EXPECT_EQ(sw.placement.serialize(), hw.placement.serialize());
    EXPECT_LE(sw.metrics.ipc, hw.metrics.ipc * 1.02);
}

} // anonymous namespace
} // namespace starnuma
