/**
 * @file
 * Property-based tests: invariants that must hold across swept
 * parameter spaces — event-queue ordering under random schedules,
 * cache inclusion/eviction algebra, tracker saturation, migration
 * engine conservation (no page lost, pool capacity never exceeded),
 * sharing-profile normalization, and trace determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/migration.hh"
#include "core/region_tracker.hh"
#include "core/tlb_annex.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "topology/topology.hh"
#include "trace/profile.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace
{

// --- EventQueue: random schedules execute in nondecreasing time ---

/** Event record of the queue properties: the schedule() call index. */
struct OrderEvent
{
    std::uint32_t id;
};

class EventQueueOrder : public ::testing::TestWithParam<int>
{
};

TEST_P(EventQueueOrder, RandomScheduleExecutesInTimeOrder)
{
    Rng rng(GetParam());
    EventQueue<OrderEvent> q;
    std::vector<Cycles> seen;
    // Seed events; some events schedule more events.
    for (std::uint32_t i = 0; i < 200; ++i)
        q.schedule(Cycles(rng.range32(10000)), {i});
    OrderEvent ev;
    while (q.pop(ev)) {
        seen.push_back(q.now());
        if (ev.id < 200 && rng.chance(0.3))
            q.schedule(q.now() + Cycles(1 + rng.range32(100)), {200});
    }
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_GE(seen.size(), 200u);
}

/**
 * Differential check of the slab + 4-ary heap against the order it
 * must reproduce: a stable sort of every scheduled event by cycle,
 * i.e. (when, insertion order). Cycles are drawn from a narrow range
 * so ties are common, handlers schedule follow-ups at the current
 * cycle and later, and the queue starts with one slot so the slab
 * grows mid-run. The pending depth passes the ~330 events of a
 * default-scale phase.
 */
TEST_P(EventQueueOrder, DispatchMatchesStableSortByTimeThenInsertion)
{
    Rng rng(GetParam());
    EventQueue<OrderEvent> q(1);
    std::vector<std::uint64_t> when; // per schedule() call
    auto schedule = [&](Cycles t) {
        q.schedule(t, {static_cast<std::uint32_t>(when.size())});
        when.push_back(t.value());
    };
    for (int i = 0; i < 600; ++i)
        schedule(Cycles(rng.range32(64)));
    std::vector<std::uint32_t> dispatched;
    OrderEvent ev;
    while (q.pop(ev)) {
        dispatched.push_back(ev.id);
        EXPECT_EQ(q.now().value(), when[ev.id]);
        if (when.size() < 4000) {
            if (rng.chance(0.4))
                schedule(q.now());
            if (rng.chance(0.4))
                schedule(q.now() + Cycles(rng.range32(8)));
        }
    }
    std::vector<std::uint32_t> expected(when.size());
    std::iota(expected.begin(), expected.end(), 0u);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return when[a] < when[b];
                     });
    EXPECT_EQ(dispatched, expected);
    EXPECT_EQ(q.executed(), when.size());
    EXPECT_GE(q.peakPending(), 600u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrder,
                         ::testing::Values(1, 7, 42, 1234));

// --- Cache: contains() agrees with access() history ---

class CacheAlgebra : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheAlgebra, HitIffContained)
{
    Rng rng(GetParam());
    mem::Cache cache({8192, 4});
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.range32(1 << 16) & ~7u;
        bool contained = cache.contains(addr);
        auto r = cache.access(addr, rng.chance(0.3));
        EXPECT_EQ(r.hit, contained);
        EXPECT_TRUE(cache.contains(addr));
        if (r.evicted) {
            EXPECT_FALSE(cache.contains(r.victim));
            EXPECT_NE(blockAddr(addr), r.victim);
        }
    }
    EXPECT_EQ(cache.hits() + cache.misses(), 5000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheAlgebra,
                         ::testing::Values(3, 9, 27));

// --- RegionTracker: counters saturate, sharers monotone ---

class TrackerSaturation : public ::testing::TestWithParam<int>
{
};

TEST_P(TrackerSaturation, CounterNeverExceedsWidth)
{
    int bits = GetParam();
    // Addresses below 1 MB: pages 0..255.
    core::RegionTracker t(bits, 16, 16 * 1024,
                          PageRange{PageNum(0), 256});
    Rng rng(5);
    std::uint32_t cap =
        bits == 0 ? 0
                  : static_cast<std::uint32_t>((1ULL << bits) - 1);
    for (int i = 0; i < 20000; ++i)
        t.record(rng.range32(1 << 20),
                 static_cast<NodeId>(rng.range32(16)),
                 1 + rng.range32(50));
    t.scanAndReset([&](core::RegionId, const core::TrackerEntry &e) {
        EXPECT_LE(e.accesses, cap);
        EXPECT_GE(e.sharerCount(), 1);
        EXPECT_LE(e.sharerCount(), 16);
    });
}

INSTANTIATE_TEST_SUITE_P(Widths, TrackerSaturation,
                         ::testing::Values(0, 1, 4, 8, 16, 24));

// --- MigrationEngine: conservation + capacity invariants ---

class MigrationInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(MigrationInvariants, PagesConservedAndPoolBounded)
{
    std::uint64_t seed = GetParam();
    constexpr Addr region = 16 * 1024;
    constexpr int ppr = region / pageBytes;
    constexpr int n_regions = 64;
    constexpr PageRange span{PageNum(0), n_regions * ppr};
    core::RegionTracker tracker(16, 16, region, span);
    mem::PageMap pages(17, span);
    core::MigrationConfig cfg;
    cfg.migrationLimitPages = 64;
    core::MigrationEngine engine(cfg, 16, true, region, seed);

    Rng rng(seed);
    // Map every region somewhere.
    for (core::RegionId r = 0; r < n_regions; ++r)
        for (int p = 0; p < ppr; ++p)
            pages.setHome(PageNum(r * ppr + p),
                          static_cast<NodeId>(rng.range32(16)));
    std::uint64_t total = pages.totalPages();
    std::uint64_t pool_cap = 10 * ppr;

    for (int phase = 1; phase <= 8; ++phase) {
        // Random heat.
        for (int i = 0; i < 2000; ++i)
            tracker.record(
                rng.range32(n_regions * static_cast<int>(region)),
                static_cast<NodeId>(rng.range32(16)),
                1 + rng.range32(20));
        auto plan =
            engine.decidePhase(tracker, pages, pool_cap, phase);
        // Conservation: no page appears or disappears.
        EXPECT_EQ(pages.totalPages(), total);
        std::uint64_t sum = 0;
        for (NodeId n = 0; n < 17; ++n)
            sum += pages.pagesAt(n);
        EXPECT_EQ(sum, total);
        // Pool capacity is never exceeded.
        EXPECT_LE(pages.pagesAt(16), pool_cap);
        // Per-phase page budget respected.
        EXPECT_LE(plan.size() * ppr,
                  cfg.migrationLimitPages + ppr);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationInvariants,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- TLB annex: flush conservation across geometries ---

class TlbGeometry
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(TlbGeometry, EveryAccessEventuallyCounted)
{
    auto [entries, ways] = GetParam();
    // Addresses below 4 MB: pages 0..1023.
    core::RegionTracker tracker(24, 16, 16 * 1024,
                                PageRange{PageNum(0), 1024});
    core::TlbAnnex tlb({entries, ways}, tracker, 4);
    Rng rng(11);
    constexpr int accesses = 8000;
    for (int i = 0; i < accesses; ++i)
        tlb.recordAccess(rng.range32(1 << 22));
    tlb.flushAll();
    // Sum of all tracker counters equals the access count (24-bit
    // counters cannot saturate at this volume).
    std::uint64_t sum = 0;
    tracker.scanAndReset(
        [&](core::RegionId, const core::TrackerEntry &e) {
            sum += e.accesses;
        });
    EXPECT_EQ(sum, static_cast<std::uint64_t>(accesses));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometry,
    ::testing::Values(std::pair<int, int>{16, 1},
                      std::pair<int, int>{64, 4},
                      std::pair<int, int>{128, 8},
                      std::pair<int, int>{1024, 8}));

// --- DRAM: completion times are sane across bank counts ---

class DramBanks : public ::testing::TestWithParam<int>
{
};

TEST_P(DramBanks, CompletionNeverBeforeUnloaded)
{
    mem::DramConfig cfg;
    cfg.banks = GetParam();
    mem::DramChannel ch(cfg);
    Rng rng(13);
    Cycles now;
    for (int i = 0; i < 2000; ++i) {
        now += Cycles(rng.range32(20));
        Cycles done = ch.access(now, rng.range32(1 << 24));
        EXPECT_GE(done, now + ch.unloadedLatency());
    }
}

INSTANTIATE_TEST_SUITE_P(Banks, DramBanks,
                         ::testing::Values(1, 4, 16, 32, 64));

// --- Topology: unloaded latency is a metric-like quantity ---

TEST(TopologyProperty, TriangleInequalityOverSockets)
{
    // Socket-to-socket routes are minimal over the coherent
    // interconnect: no socket detour beats the direct route.
    topology::Topology t(topology::SystemConfig::starnuma16());
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        NodeId a = rng.range32(16);
        NodeId b = rng.range32(16);
        NodeId c = rng.range32(16);
        EXPECT_LE(t.unloadedOneWay(a, b),
                  t.unloadedOneWay(a, c) + t.unloadedOneWay(c, b));
    }
}

TEST(TopologyProperty, PoolIsALatencyShortcutHardwareCannotTake)
{
    // The paper's §III-C observation in topological form: bouncing
    // through the pool (2 x 50 ns) is faster than a direct
    // inter-chassis crossing (140 ns) — but coherent socket-to-
    // socket routes never pass through the pool; only the 4-hop
    // coherence path exploits the shortcut.
    topology::Topology t(topology::SystemConfig::starnuma16());
    NodeId pool = t.poolNode();
    EXPECT_LT(t.unloadedOneWay(0, pool) +
                  t.unloadedOneWay(pool, 15),
              t.unloadedOneWay(0, 15));
    for (const auto &hop : t.route(0, 15).hops)
        EXPECT_NE(t.links()[hop.link].type(),
                  topology::LinkType::CXL);
}

TEST(TopologyProperty, ContendedNeverFasterThanUnloaded)
{
    topology::Topology t(topology::SystemConfig::starnuma16());
    Rng rng(19);
    Cycles now;
    for (int i = 0; i < 2000; ++i) {
        now += Cycles(rng.range32(5));
        NodeId src = rng.range32(16);
        NodeId dst = rng.range32(t.nodes());
        if (src == dst)
            continue;
        Cycles arrival =
            t.send(src, dst, now, topology::dataBytes);
        EXPECT_GE(arrival, now + t.unloadedOneWay(src, dst));
    }
}

// --- SharingProfile: normalization ---

TEST(ProfileProperty, FractionsSumToOne)
{
    SimScale s;
    s.sockets = 4;
    s.socketsPerChassis = 2;
    s.coresPerSocket = 2;
    s.phases = 1;
    s.phaseInstructions = 20000;
    auto t = workloads::makeWorkload("tpcc")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    double pages = 0, accesses = 0;
    for (int d = 1; d <= s.sockets; ++d) {
        pages += p.pageFraction(d);
        accesses += p.accessFraction(d);
    }
    EXPECT_NEAR(pages, 1.0, 1e-9);
    EXPECT_NEAR(accesses, 1.0, 1e-9);
}

// --- Workload determinism: identical seeds, identical traces ---

class WorkloadDeterminism
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDeterminism, SameSeedSameTrace)
{
    SimScale s;
    s.sockets = 4;
    s.socketsPerChassis = 2;
    s.coresPerSocket = 2;
    s.phases = 1;
    s.phaseInstructions = 15000;
    auto a = workloads::makeWorkload(GetParam(), 7)->capture(s);
    auto b = workloads::makeWorkload(GetParam(), 7)->capture(s);
    ASSERT_EQ(a.totalRecords(), b.totalRecords());
    for (int t = 0; t < a.threads; ++t) {
        ASSERT_EQ(a.perThread[t].size(), b.perThread[t].size());
        for (std::size_t i = 0; i < a.perThread[t].size(); ++i) {
            EXPECT_EQ(a.perThread[t][i].instr,
                      b.perThread[t][i].instr);
            EXPECT_EQ(a.perThread[t][i].vaddr(),
                      b.perThread[t][i].vaddr());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDeterminism,
                         ::testing::Values("bfs", "masstree",
                                           "tpcc", "poa"));

} // anonymous namespace
} // namespace starnuma
