/**
 * @file
 * Incremental sweep engine (DESIGN.md §16): cache-key stability
 * goldens (each declared input perturbs the key; nothing else
 * does), warm-equals-cold byte identity across worker-pool sizes,
 * the two store tiers a cold run fills (trace and result), and the
 * corruption contract at the experiment tier (a damaged stored
 * bundle demotes to recomputation with identical artifacts).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "driver/artifact_cache.hh"
#include "driver/artifact_key.hh"
#include "driver/experiment.hh"
#include "sim/cas/hash.hh"
#include "sim/obs/obs.hh"
#include "sim/parallel.hh"
#include "sim/scale.hh"
#include "trace/columnar.hh"

namespace starnuma
{
namespace
{

/** Fresh-store RAII: every test runs against its own emptied cache
 *  directory and leaves the process-global cache disabled. */
struct ScopedCache
{
    explicit ScopedCache(const std::string &name)
    {
        driver::ArtifactCache &c = driver::ArtifactCache::global();
        c.enable(testing::TempDir() + name);
        c.store()->trim(0);
        c.resetCounters();
    }
    ~ScopedCache()
    {
        driver::ArtifactCache::global().store()->trim(0);
        driver::ArtifactCache::global().disable();
    }
};

cas::Hash128
fakeContent()
{
    return cas::hashString("trace-content-fixture");
}

// --- cache-key stability -------------------------------------------

TEST(CacheKey, TraceKeyPerturbation)
{
    SimScale s = SimScale::tiny();
    std::string base = driver::traceKeyText("bfs", s);
    // Deterministic: same inputs, same key text.
    EXPECT_EQ(base, driver::traceKeyText("bfs", s));
    EXPECT_NE(base, driver::traceKeyText("tc", s));

    // Every scale knob folds into the "scale" fingerprint.
    SimScale s2 = s;
    s2.phaseInstructions += 1;
    EXPECT_NE(base, driver::traceKeyText("bfs", s2));
    SimScale s3 = s;
    s3.coresPerSocket *= 2;
    EXPECT_NE(base, driver::traceKeyText("bfs", s3));

    // The key is self-describing "field=value" text.
    EXPECT_NE(base.find("kind=step_a_trace\n"), std::string::npos);
    EXPECT_NE(base.find("workload.name=bfs\n"), std::string::npos);
    EXPECT_NE(base.find("code.epoch="), std::string::npos);
    EXPECT_NE(base.find("env.STARNUMA_THREADS=invariant\n"),
              std::string::npos);
}

TEST(CacheKey, ResultKeyPerturbation)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    std::string base = driver::resultKeyText("bfs", setup, s,
                                             fakeContent(), false);
    EXPECT_EQ(base, driver::resultKeyText("bfs", setup, s,
                                          fakeContent(), false));

    // Each declared input moves the key.
    EXPECT_NE(base, driver::resultKeyText("tc", setup, s,
                                          fakeContent(), false));
    EXPECT_NE(base, driver::resultKeyText(
                        "bfs", setup, s,
                        cas::hashString("other-trace"), false));
    EXPECT_NE(base, driver::resultKeyText("bfs", setup, s,
                                          fakeContent(), true));

    driver::SystemSetup pol = setup;
    pol.migration.hiThresholdStart += 1;
    EXPECT_NE(base, driver::resultKeyText("bfs", pol, s,
                                          fakeContent(), false));
    driver::SystemSetup topo = setup;
    topo.sys.cxlOneWayNs += 1.0;
    EXPECT_NE(base, driver::resultKeyText("bfs", topo, s,
                                          fakeContent(), false));
}

// --- experiment-tier behaviour -------------------------------------

std::vector<std::uint8_t>
placementBytes(const driver::ExperimentResult &r)
{
    return r.placement.serialize();
}

TEST(SweepCache, WarmResultHitIsByteIdentical)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    // Reference: the exact artifacts an uncached run produces.
    driver::ArtifactCache::global().disable();
    driver::ExperimentResult ref =
        driver::runExperiment("tc", setup, s);

    ScopedCache cache_dir("sweep_cache_hit");
    driver::ArtifactCache &cache = driver::ArtifactCache::global();

    driver::ExperimentResult cold =
        driver::runExperiment("tc", setup, s);
    EXPECT_EQ(cache.resultMisses(), 1u);
    EXPECT_EQ(cache.resultHits(), 0u);
    EXPECT_EQ(placementBytes(cold), placementBytes(ref));

    driver::ExperimentResult warm =
        driver::runExperiment("tc", setup, s);
    EXPECT_EQ(cache.resultHits(), 1u);
    EXPECT_EQ(placementBytes(warm), placementBytes(ref));
    EXPECT_EQ(driver::metricsSnapshot(warm.metrics).values(),
              driver::metricsSnapshot(ref.metrics).values());
}

TEST(SweepCache, WarmEqualsColdAcrossPoolSizes)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    ScopedCache cache_dir("sweep_cache_pools");

    ThreadPool::setGlobalThreads(1);
    driver::ExperimentResult cold =
        driver::runExperiment("bfs", setup, s);
    std::vector<std::uint8_t> cold_bytes = placementBytes(cold);
    auto cold_metrics =
        driver::metricsSnapshot(cold.metrics).values();
    EXPECT_FALSE(cold_bytes.empty());

    // The store is keyed by deterministic inputs only, so a pool
    // of any size replays the cold artifacts bit-for-bit.
    for (int pool_size : {4, 8}) {
        SCOPED_TRACE("pool=" + std::to_string(pool_size));
        ThreadPool::setGlobalThreads(pool_size);
        driver::ExperimentResult warm =
            driver::runExperiment("bfs", setup, s);
        EXPECT_EQ(placementBytes(warm), cold_bytes);
        EXPECT_EQ(driver::metricsSnapshot(warm.metrics).values(),
                  cold_metrics);
    }
    ThreadPool::setGlobalThreads(0);
    EXPECT_EQ(driver::ArtifactCache::global().resultHits(), 2u);
}

TEST(SweepCache, ColdRunStoresOnlyTraceAndResult)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    ScopedCache cache_dir("sweep_cache_tiers");
    std::shared_ptr<cas::Store> store =
        driver::ArtifactCache::global().store();

    driver::runExperiment("cc", setup, s);

    cas::Hash128 content = cas::hashBytes(
        trace::encodeColumnar(driver::workloadTrace("cc", s)));
    EXPECT_TRUE(store->containsObject(driver::resultKeyText(
        "cc", setup, s, content,
        obs::StatsSink::global().enabled())));
    // The trace memo is process-wide: an earlier test may already
    // have captured cc, in which case this run never reached the
    // trace tier and only the result bundle was written.
    bool has_trace =
        store->containsObject(driver::traceKeyText("cc", s));
    EXPECT_EQ(store->listObjects().size(), has_trace ? 2u : 1u);
}

TEST(SweepCache, CorruptedBundleDemotesToRecompute)
{
    SimScale s = SimScale::tiny();
    driver::SystemSetup setup = driver::SystemSetup::starnuma();
    ScopedCache cache_dir("sweep_cache_corrupt");
    driver::ArtifactCache &cache = driver::ArtifactCache::global();
    std::shared_ptr<cas::Store> store = cache.store();

    driver::ExperimentResult cold =
        driver::runExperiment("fmi", setup, s);
    std::vector<std::uint8_t> cold_bytes = placementBytes(cold);

    // Flip one byte in the middle of every stored object.
    for (const std::string &rel : store->listObjects()) {
        std::string path = store->directory() + "/" + rel;
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        ASSERT_GT(size, 0);
        std::fseek(f, size / 2, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, size / 2, SEEK_SET);
        std::fputc(c ^ 0x55, f);
        std::fclose(f);
    }

    cache.resetCounters();
    driver::ExperimentResult redo =
        driver::runExperiment("fmi", setup, s);
    EXPECT_EQ(cache.resultHits(), 0u);
    EXPECT_EQ(cache.resultMisses(), 1u);
    EXPECT_EQ(placementBytes(redo), cold_bytes);
}

TEST(SweepCache, TraceTierCountsCaptures)
{
    // The process-wide trace memo makes per-test trace-tier
    // assertions order-dependent, so assert only the monotone
    // contract: captures never decrease, and a memoized workload
    // is not re-captured by a second lookup.
    SimScale s = SimScale::tiny();
    std::uint64_t before = driver::workloadTraceCaptures();
    driver::workloadTrace("tc", s);
    std::uint64_t after = driver::workloadTraceCaptures();
    EXPECT_GE(after, before);
    driver::workloadTrace("tc", s);
    EXPECT_EQ(driver::workloadTraceCaptures(), after);
}

} // anonymous namespace
} // namespace starnuma
