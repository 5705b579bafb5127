/**
 * @file
 * Tests for StarNUMA's contribution: region trackers (T0/T16), the
 * TLB counter annex, Algorithm 1's migration engine (thresholds,
 * pool placement, victims, ping-pong), the baseline's perfect-
 * knowledge policy, oracle placement, and shootdown costs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/migration.hh"
#include "core/oracle.hh"
#include "core/page_stats.hh"
#include "core/perfect_policy.hh"
#include "core/region_tracker.hh"
#include "core/shootdown.hh"
#include "core/tlb_annex.hh"
#include "core/tlb_directory.hh"

namespace starnuma
{
namespace core
{
namespace
{

constexpr Addr kRegion = 64 * 1024; // scaled-down region size

/** Pages every table in these tests covers: regions 0..63. */
constexpr PageRange kSpan{PageNum(0), 64 * (kRegion / pageBytes)};

// --- RegionTracker ---

TEST(RegionTracker, RecordsSharersAndCounts)
{
    RegionTracker t(16, 16, kRegion, kSpan);
    t.record(0x1000, 3, 5);
    t.record(0x2000, 7, 2); // same 64 KB region
    const auto &e = t.entry(0);
    EXPECT_EQ(e.accesses, 7u);
    EXPECT_EQ(e.sharerCount(), 2);
    EXPECT_TRUE(e.sharerMask & (1ULL << 3));
    EXPECT_TRUE(e.sharerMask & (1ULL << 7));
}

TEST(RegionTracker, SeparateRegionsSeparateEntries)
{
    RegionTracker t(16, 16, kRegion, kSpan);
    t.record(0, 0);
    t.record(kRegion, 1);
    EXPECT_EQ(t.touchedRegions(), 2u);
    EXPECT_EQ(t.entry(0).sharerCount(), 1);
    EXPECT_EQ(t.entry(1).sharerCount(), 1);
}

TEST(RegionTracker, CounterSaturates)
{
    RegionTracker t(4, 16, kRegion, kSpan); // T4: max 15
    t.record(0, 0, 100);
    EXPECT_EQ(t.entry(0).accesses, 15u);
}

TEST(RegionTracker, T0TracksOnlyPresence)
{
    RegionTracker t(0, 16, kRegion, kSpan);
    t.record(0, 5, 1000);
    EXPECT_EQ(t.entry(0).accesses, 0u);
    EXPECT_EQ(t.entry(0).sharerCount(), 1);
}

TEST(RegionTracker, PaperMetadataRegionSize)
{
    // §III-D4: 16 TB of memory, 512 KB regions, T16, 16 sockets
    // -> 32M entries x 4 B = 128 MB metadata region.
    RegionTracker t(16, 16, 512 * 1024, PageRange{});
    EXPECT_EQ(t.entryBytes(), 4u);
    EXPECT_EQ(t.metadataBytes(16ULL << 40), 128ULL << 20);
    EXPECT_EQ(t.pagesPerRegion(), 128);
}

TEST(RegionTracker, ScanAndResetClears)
{
    RegionTracker t(16, 16, kRegion, kSpan);
    t.record(0, 0);
    t.record(kRegion, 1);
    int seen = 0;
    t.scanAndReset([&](RegionId, const TrackerEntry &) { ++seen; });
    EXPECT_EQ(seen, 2);
    EXPECT_EQ(t.touchedRegions(), 0u);
    EXPECT_EQ(t.entry(0).sharerCount(), 0);
}

TEST(RegionTracker, RegionOfAndFirstPage)
{
    RegionTracker t(16, 16, kRegion, kSpan);
    EXPECT_EQ(t.regionOf(kRegion - 1), 0u);
    EXPECT_EQ(t.regionOf(kRegion), 1u);
    EXPECT_EQ(t.firstPage(2), PageNum(2 * kRegion / pageBytes));
}

// --- TlbAnnex ---

TEST(TlbAnnex, EvictionFlushesCounterToTracker)
{
    RegionTracker tracker(16, 16, kRegion, kSpan);
    TlbAnnex tlb({4, 1}, tracker, 2); // 4 sets, direct mapped

    // Hammer one page, then push it out with conflicting pages.
    for (int i = 0; i < 10; ++i)
        tlb.recordAccess(0x0);
    EXPECT_EQ(tracker.entry(0).accesses, 0u); // not yet flushed
    tlb.recordAccess(4 * pageBytes); // same TLB set -> evicts page 0
    EXPECT_EQ(tracker.entry(0).accesses, 10u);
    EXPECT_TRUE(tracker.entry(0).sharerMask & (1ULL << 2));
}

TEST(TlbAnnex, FlushAllDrainsResidentCounters)
{
    RegionTracker tracker(16, 16, kRegion, kSpan);
    TlbAnnex tlb({64, 4}, tracker, 0);
    for (int i = 0; i < 7; ++i)
        tlb.recordAccess(0x0);
    tlb.flushAll();
    EXPECT_EQ(tracker.entry(0).accesses, 7u);
}

TEST(TlbAnnex, MarkerCapturesHotResidentPages)
{
    RegionTracker tracker(16, 16, kRegion, kSpan);
    TlbAnnex tlb({64, 4}, tracker, 0);
    for (int i = 0; i < 5; ++i)
        tlb.recordAccess(0x40);
    tlb.setMarkers();
    // Next access to the marked entry flushes the annex value.
    tlb.recordAccess(0x40);
    EXPECT_EQ(tracker.entry(0).accesses, 5u);
}

TEST(TlbAnnex, ShootdownInvalidatesAndFlushes)
{
    RegionTracker tracker(16, 16, kRegion, kSpan);
    TlbAnnex tlb({64, 4}, tracker, 0);
    tlb.recordAccess(0x1000);
    tlb.recordAccess(0x1008);
    EXPECT_TRUE(tlb.shootdown(pageNumber(0x1000)));
    EXPECT_EQ(tracker.entry(0).accesses, 2u);
    EXPECT_FALSE(tlb.shootdown(pageNumber(0x1000))); // already gone
    // Re-access misses the TLB again.
    auto misses = tlb.tlbMisses();
    tlb.recordAccess(0x1000);
    EXPECT_EQ(tlb.tlbMisses(), misses + 1);
}

TEST(TlbAnnex, T0RecordsPresenceWithoutCounting)
{
    RegionTracker tracker(0, 16, kRegion, kSpan);
    TlbAnnex tlb({64, 4}, tracker, 9);
    tlb.recordAccess(0x0);
    EXPECT_TRUE(tracker.entry(0).sharerMask & (1ULL << 9));
    EXPECT_EQ(tracker.entry(0).accesses, 0u);
}

TEST(TlbAnnex, HitsAndMissesCounted)
{
    RegionTracker tracker(16, 16, kRegion, kSpan);
    TlbAnnex tlb({64, 4}, tracker, 0);
    tlb.recordAccess(0x0);
    tlb.recordAccess(0x10);
    tlb.recordAccess(pageBytes);
    EXPECT_EQ(tlb.tlbMisses(), 2u);
    EXPECT_EQ(tlb.tlbHits(), 1u);
}

// --- MigrationEngine ---

class MigrationTest : public ::testing::Test
{
  protected:
    MigrationTest()
        : tracker(16, 16, kRegion, kSpan), pages(17, kSpan),
          engine(MigrationConfig{}, 16, true, kRegion, 42)
    {
    }

    /** Touch every page of @p region so it is mapped at @p home. */
    void
    mapRegion(RegionId region, NodeId home)
    {
        Addr first = region * kRegion / pageBytes;
        for (Addr p = first; p < first + kRegion / pageBytes; ++p)
            pages.setHome(PageNum(p), home);
    }

    /** Record accesses from @p sharers distinct sockets. */
    void
    heatRegion(RegionId region, int sharers, std::uint32_t count)
    {
        for (int s = 0; s < sharers; ++s)
            tracker.record(region * kRegion, s, count);
    }

    RegionTracker tracker;
    mem::PageMap pages;
    MigrationEngine engine;
};

TEST_F(MigrationTest, WidelySharedHotRegionGoesToPool)
{
    mapRegion(0, 3);
    heatRegion(0, 16, 100); // hot, shared by all
    auto plan = engine.decidePhase(tracker, pages, 100000, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].to, 16); // pool node
    EXPECT_EQ(plan[0].from, 3);
    EXPECT_EQ(pages.home(PageNum(0)), 16);
    EXPECT_EQ(engine.migratedToPool(), 1u);
    EXPECT_DOUBLE_EQ(engine.poolMigrationFraction(), 1.0);
}

TEST_F(MigrationTest, NarrowlySharedRegionGoesToASharer)
{
    mapRegion(0, 9);
    heatRegion(0, 3, 100); // sharers 0,1,2 < threshold 8
    auto plan = engine.decidePhase(tracker, pages, 100000, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_LT(plan[0].to, 3);
    EXPECT_EQ(engine.migratedToPool(), 0u);
}

TEST_F(MigrationTest, ColdRegionStays)
{
    mapRegion(0, 3);
    heatRegion(0, 16, 1); // 16 accesses < HI 64
    auto plan = engine.decidePhase(tracker, pages, 100000, 1);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(pages.home(PageNum(0)), 3);
}

TEST_F(MigrationTest, AlreadyAtBestLocationNoMove)
{
    mapRegion(0, 16); // already in the pool
    heatRegion(0, 16, 100);
    engine.decidePhase(tracker, pages, 100000, 1);
    // Re-heat and re-decide; location is the pool both times.
    heatRegion(0, 16, 100);
    auto plan = engine.decidePhase(tracker, pages, 100000, 2);
    EXPECT_TRUE(plan.empty());
}

TEST_F(MigrationTest, MigrationLimitRespected)
{
    MigrationConfig cfg;
    cfg.migrationLimitPages = kRegion / pageBytes; // one region
    MigrationEngine limited(cfg, 16, true, kRegion, 7);
    for (RegionId r = 0; r < 4; ++r) {
        mapRegion(r, 1);
        heatRegion(r, 16, 100);
    }
    auto plan = limited.decidePhase(tracker, pages, 100000, 1);
    EXPECT_EQ(plan.size(), 1u);
}

TEST_F(MigrationTest, PoolCapacityTriggersVictimEviction)
{
    int ppr = static_cast<int>(kRegion / pageBytes);
    // Region 0 resident in pool (cold), region 1 hot and shared.
    mapRegion(0, 5);
    heatRegion(0, 16, 100);
    engine.decidePhase(tracker, pages, ppr, 1); // region 0 -> pool

    mapRegion(1, 5);
    heatRegion(1, 16, 100);
    // Pool only fits one region: region 0 must be evicted first.
    auto plan = engine.decidePhase(tracker, pages, ppr, 2);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_TRUE(plan[0].victimEviction);
    EXPECT_EQ(plan[0].region, 0u);
    EXPECT_EQ(plan[0].from, 16);
    EXPECT_FALSE(plan[1].victimEviction);
    EXPECT_EQ(pages.home(PageNum(ppr)), 16); // region 1's first page
    EXPECT_EQ(engine.victimEvictions(), 1u);
}

TEST_F(MigrationTest, HotPoolResidentsAreNotVictims)
{
    int ppr = static_cast<int>(kRegion / pageBytes);
    mapRegion(0, 5);
    heatRegion(0, 16, 100);
    engine.decidePhase(tracker, pages, ppr, 1); // region 0 -> pool

    // Both regions hot this phase; region 0 is above LO so it is
    // not evictable and region 1's migration is skipped.
    mapRegion(1, 5);
    heatRegion(0, 16, 100);
    heatRegion(1, 16, 100);
    auto plan = engine.decidePhase(tracker, pages, ppr, 2);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(pages.home(PageNum(0)), 16); // region 0 stayed
}

TEST_F(MigrationTest, PingPongSuppression)
{
    mapRegion(0, 3);
    // Migrate the region once (phase 1), then keep it hot: by
    // phase 2, one migration > 2/4 suppresses further moves.
    heatRegion(0, 16, 100);
    engine.decidePhase(tracker, pages, 100000, 1);
    pages.setHome(PageNum(0), 3); // pretend something moved it back
    for (Addr p = 1; p < kRegion / pageBytes; ++p)
        pages.setHome(PageNum(p), 3);
    heatRegion(0, 16, 100);
    auto plan = engine.decidePhase(tracker, pages, 100000, 2);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(engine.pingPongSuppressed(), 1u);
}

TEST_F(MigrationTest, T0UsesAllSocketsCriterion)
{
    MigrationConfig cfg;
    cfg.counterBits = 0;
    MigrationEngine t0(cfg, 16, true, kRegion, 3);
    RegionTracker tracker0(0, 16, kRegion, kSpan);

    mapRegion(0, 2);
    mapRegion(1, 2);
    for (int s = 0; s < 16; ++s)
        tracker0.record(0, s, 0); // region 0: all sockets
    for (int s = 0; s < 15; ++s)
        tracker0.record(kRegion, s, 0); // region 1: 15 sockets
    auto plan = t0.decidePhase(tracker0, pages, 100000, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].region, 0u);
    EXPECT_EQ(plan[0].to, 16);
}

TEST_F(MigrationTest, BaselineHasNoPoolDestination)
{
    MigrationConfig cfg;
    cfg.poolEnabled = false;
    MigrationEngine base(cfg, 16, false, kRegion, 5);
    // Home (socket 9) is not among the sharers (0..7), so the
    // region moves — but only ever to a socket, never the pool.
    mapRegion(0, 9);
    heatRegion(0, 8, 100);
    auto plan = base.decidePhase(tracker, pages, 0, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_LT(plan[0].to, 8);
}

TEST_F(MigrationTest, PlacedAtASharerStaysPut)
{
    // A hot, narrowly shared region already homed at one of its
    // sharers is not reshuffled (DESIGN.md deviation from the
    // literal random(sharers) destination).
    mapRegion(0, 2);
    heatRegion(0, 4, 100); // sharers 0..3 include the home
    auto plan = engine.decidePhase(tracker, pages, 100000, 1);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(pages.home(PageNum(0)), 2);
}

TEST_F(MigrationTest, LiteralReshuffleFlagRestoresAlgorithm1)
{
    MigrationConfig cfg;
    cfg.randomSharerReshuffle = true;
    MigrationEngine literal(cfg, 16, true, kRegion, 2);
    mapRegion(0, 2);
    heatRegion(0, 2, 100); // sharers {0, 1}; home 2 not a sharer
    auto plan = literal.decidePhase(tracker, pages, 100000, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_LT(plan[0].to, 2);
}

TEST_F(MigrationTest, HiThresholdAdaptsUpUnderPressure)
{
    MigrationConfig cfg;
    cfg.migrationLimitPages = kRegion / pageBytes; // 1 region
    MigrationEngine eng(cfg, 16, true, kRegion, 11);
    for (RegionId r = 0; r < 20; ++r) {
        mapRegion(r, 1);
        heatRegion(r, 16, 1000);
    }
    std::uint32_t before = eng.hiThreshold();
    eng.decidePhase(tracker, pages, 1u << 20, 1);
    EXPECT_GT(eng.hiThreshold(), before);
}

TEST_F(MigrationTest, HiThresholdAdaptsDownWhenQuiet)
{
    MigrationConfig cfg;
    cfg.hiThresholdStart = 1024;
    cfg.migrationLimitPages = 64 * (kRegion / pageBytes);
    MigrationEngine eng(cfg, 16, true, kRegion, 13);
    mapRegion(0, 1);
    heatRegion(0, 16, 10); // below HI
    eng.decidePhase(tracker, pages, 1u << 20, 1);
    EXPECT_LT(eng.hiThreshold(), 1024u);
}

// --- PerfectPagePolicy ---

TEST(PerfectPolicy, MovesPageToMajoritySocket)
{
    mem::PageMap pages(17, kSpan);
    pages.setHome(PageNum(10), 0);
    PerfectPagePolicy policy(16, kSpan, 1000);
    for (int i = 0; i < 8; ++i)
        policy.recordAccess(PageNum(10), 5);
    policy.recordAccess(PageNum(10), 0);
    auto plan = policy.decidePhase(pages);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].to, 5);
    EXPECT_EQ(pages.home(PageNum(10)), 5);
}

TEST(PerfectPolicy, RespectsLimitHottestFirst)
{
    mem::PageMap pages(17, kSpan);
    pages.setHome(PageNum(1), 0);
    pages.setHome(PageNum(2), 0);
    PerfectPagePolicy policy(16, kSpan, 1);
    for (int i = 0; i < 100; ++i)
        policy.recordAccess(PageNum(1), 3);
    for (int i = 0; i < 10; ++i)
        policy.recordAccess(PageNum(2), 3);
    auto plan = policy.decidePhase(pages);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].page, PageNum(1));
    EXPECT_EQ(pages.home(PageNum(2)), 0);
}

TEST(PerfectPolicy, IgnoresColdAndWellPlacedPages)
{
    mem::PageMap pages(17, kSpan);
    pages.setHome(PageNum(1), 3);
    pages.setHome(PageNum(2), 0);
    PerfectPagePolicy policy(16, kSpan, 1000, 4);
    for (int i = 0; i < 100; ++i)
        policy.recordAccess(PageNum(1), 3); // already home
    policy.recordAccess(PageNum(2), 5); // too cold (1 < 4)
    EXPECT_TRUE(policy.decidePhase(pages).empty());
}

// --- PageAccessStats ---

TEST(PageStats, MajorityAndSharers)
{
    PageAccessStats st(16, kSpan);
    st.record(PageNum(7), 2);
    st.record(PageNum(7), 2);
    st.record(PageNum(7), 9);
    EXPECT_EQ(st.majoritySocket(PageNum(7)), 2);
    EXPECT_EQ(st.sharers(PageNum(7)), 2);
    EXPECT_EQ(st.totalAccesses(PageNum(7)), 3u);
    EXPECT_EQ(st.majoritySocket(PageNum(8)), -1);
}

// --- OraclePlacement ---

TEST(Oracle, PrivatePagesGoToTheirSocket)
{
    OraclePlacement oracle(16, kSpan);
    mem::PageMap pages(17, kSpan);
    oracle.recordAccess(PageNum(1), 4);
    oracle.recordAccess(PageNum(1), 4);
    oracle.place(pages, true, 1000);
    EXPECT_EQ(pages.home(PageNum(1)), 4);
}

TEST(Oracle, WidelySharedPagesGoToPool)
{
    OraclePlacement oracle(16, kSpan);
    mem::PageMap pages(17, kSpan);
    for (int s = 0; s < 10; ++s)
        oracle.recordAccess(PageNum(1), s);
    std::uint64_t placed = oracle.place(pages, true, 1000);
    EXPECT_EQ(placed, 1u);
    EXPECT_EQ(pages.home(PageNum(1)), 16);
}

TEST(Oracle, BaselineModeNeverUsesPool)
{
    OraclePlacement oracle(16, kSpan);
    mem::PageMap pages(17, kSpan);
    for (int s = 0; s < 16; ++s)
        oracle.recordAccess(PageNum(1), s);
    EXPECT_EQ(oracle.place(pages, false, 1000), 0u);
    EXPECT_LT(pages.home(PageNum(1)), 16);
}

TEST(Oracle, PoolCapacityTakesHottestPages)
{
    OraclePlacement oracle(16, kSpan);
    mem::PageMap pages(17, kSpan);
    // Page 1: 10 sharers, 10 accesses. Page 2: 10 sharers, 20.
    for (int s = 0; s < 10; ++s)
        oracle.recordAccess(PageNum(1), s);
    for (int rep = 0; rep < 2; ++rep)
        for (int s = 0; s < 10; ++s)
            oracle.recordAccess(PageNum(2), s);
    EXPECT_EQ(oracle.place(pages, true, 1), 1u);
    EXPECT_EQ(pages.home(PageNum(2)), 16);
    EXPECT_LT(pages.home(PageNum(1)), 16); // overflowed to majority socket
}

// --- ShootdownModel ---

TEST(Shootdown, HardwareCostIsPerPage)
{
    ShootdownModel m;
    EXPECT_EQ(m.hardwareCost(0), Cycles(0));
    EXPECT_EQ(m.hardwareCost(10), Cycles(30000));
}

TEST(Shootdown, SoftwareCostScalesWithCores)
{
    // §III-D3: conventional shootdowns interrupt every core; the
    // hardware-supported design must be orders cheaper at scale.
    ShootdownModel m;
    EXPECT_EQ(m.softwareCost(10, 448), Cycles(10u * 448u * 4000u));
    EXPECT_GT(m.softwareCost(1, 448), 100 * m.hardwareCost(1));
}

// --- TlbDirectory (DiDi-style shared TLB directory, §III-D3) ---

TEST(TlbDirectory, TracksFillsAndEvictions)
{
    TlbDirectory dir(64, kSpan);
    dir.fill(PageNum(10), 3);
    dir.fill(PageNum(10), 7);
    EXPECT_EQ(dir.holderCount(PageNum(10)), 2);
    EXPECT_TRUE(dir.holders(PageNum(10)).test(3));
    dir.evict(PageNum(10), 3);
    EXPECT_EQ(dir.holderCount(PageNum(10)), 1);
    dir.evict(PageNum(10), 7);
    EXPECT_EQ(dir.trackedPages(), 0u);
    dir.evict(PageNum(10), 7); // idempotent
}

TEST(TlbDirectory, ShootdownTargetsOnlyHolders)
{
    TlbDirectory dir(64, kSpan);
    dir.fill(PageNum(5), 1);
    dir.fill(PageNum(5), 2);
    EXPECT_EQ(dir.shootdown(PageNum(5)), 2);
    EXPECT_EQ(dir.shootdownsSent(), 2u);
    EXPECT_EQ(dir.shootdownsSaved(), 62u);
    // The savings vs broadcasting is the whole point of DiDi.
    EXPECT_GT(dir.savingsRatio(), 0.9);
    EXPECT_EQ(dir.shootdown(PageNum(5)), 0); // already clear
}

TEST(TlbDirectory, SupportsWideSystems)
{
    TlbDirectory dir(128, kSpan); // SC3: 128 threads
    dir.fill(PageNum(1), 127);
    dir.fill(PageNum(1), 0);
    EXPECT_TRUE(dir.holders(PageNum(1)).test(127));
    EXPECT_EQ(dir.holderCount(PageNum(1)), 2);
    EXPECT_EQ(dir.shootdown(PageNum(1)), 2);
}

TEST(TlbDirectory, AnnexIntegrationMirrorsResidency)
{
    RegionTracker tracker(16, 16, kRegion, kSpan);
    TlbDirectory dir(4, kSpan);
    TlbAnnex tlb({4, 1}, tracker, 0); // 4 sets, direct mapped
    tlb.attachDirectory(&dir, 2);

    tlb.recordAccess(0x0);
    EXPECT_TRUE(dir.holders(PageNum(0)).test(2));
    // Conflict eviction (same set): directory entry follows.
    tlb.recordAccess(4 * pageBytes);
    EXPECT_FALSE(dir.holders(PageNum(0)).test(2));
    EXPECT_TRUE(dir.holders(PageNum(4)).test(2));
    // Annex-side shootdown also clears the directory.
    tlb.shootdown(pageNumber(4 * pageBytes));
    EXPECT_EQ(dir.holderCount(PageNum(4)), 0);
}

// --- Out-of-range keys (DESIGN.md §12) ---
//
// Every page- and region-keyed table covers the range given at
// construction: a write outside it panics, a read outside it sees
// the untouched value.

/** Pages 20..27: the middle half of region 1 (pages 16..31). */
constexpr PageRange kPartial{PageNum(20), 8};

TEST(DenseTableDeathTest, RegionTrackerRecordOutsideRangePanics)
{
    RegionTracker t(16, 16, kRegion, kPartial);
    t.record(1 * kRegion, 0); // region 1 holds the range
    EXPECT_DEATH(t.record(0, 0), "outside the tracker's range");
    EXPECT_DEATH(t.record(2 * kRegion, 0),
                 "outside the tracker's range");
}

TEST(DenseTableDeathTest, TlbDirectoryFillOutsideRangePanics)
{
    TlbDirectory dir(4, kPartial);
    dir.fill(PageNum(27), 0);
    EXPECT_DEATH(dir.fill(PageNum(19), 0),
                 "outside the TLB directory's range");
    EXPECT_DEATH(dir.fill(PageNum(28), 0),
                 "outside the TLB directory's range");
}

TEST(DenseTableDeathTest, PageStatsRecordOutsideRangePanics)
{
    PageAccessStats st(16, kPartial);
    st.record(PageNum(20), 3);
    EXPECT_DEATH(st.record(PageNum(19), 3),
                 "outside the access-stats range");
    EXPECT_DEATH(st.record(PageNum(28), 3),
                 "outside the access-stats range");
    EXPECT_DEATH(st.record(PageNum(21), 16), "unknown socket 16");
}

TEST(DenseTables, OutOfRangeReadsAreUntouched)
{
    RegionTracker t(16, 16, kRegion, kPartial);
    t.record(1 * kRegion, 5, 9);
    EXPECT_EQ(t.entry(1).accesses, 9u);
    EXPECT_EQ(t.entry(0).sharerMask, 0u);
    EXPECT_EQ(t.entry(0).accesses, 0u);
    EXPECT_EQ(t.entry(2).sharerMask, 0u);
    EXPECT_EQ(t.entry(~RegionId(0)).accesses, 0u);

    TlbDirectory dir(4, kPartial);
    dir.fill(PageNum(20), 1);
    EXPECT_FALSE(dir.holders(PageNum(19)).any());
    EXPECT_FALSE(dir.holders(PageNum(28)).any());
    EXPECT_EQ(dir.holderCount(PageNum(28)), 0);
    // Shooting down a page nobody can hold targets no core.
    EXPECT_EQ(dir.shootdown(PageNum(28)), 0);
    EXPECT_EQ(dir.trackedPages(), 1u);

    PageAccessStats st(16, kPartial);
    st.record(PageNum(27), 2, 4);
    EXPECT_EQ(st.totalAccesses(PageNum(27)), 4u);
    EXPECT_EQ(st.totalAccesses(PageNum(19)), 0u);
    EXPECT_EQ(st.totalAccesses(PageNum(28)), 0u);
    EXPECT_EQ(st.sharers(PageNum(28)), 0);
    EXPECT_EQ(st.majoritySocket(PageNum(28)), -1);
}

TEST(DenseTables, PageStatsFollowFirstAccessOrderAcrossReset)
{
    PageAccessStats st(4, kPartial);
    st.record(PageNum(22), 1, 3);
    st.record(PageNum(21), 0, 1);
    std::vector<PageNum> seen;
    st.forEach([&](PageNum page, const std::uint32_t *counts) {
        seen.push_back(page);
        EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3],
                  page == PageNum(22) ? 3u : 1u);
    });
    // First-access order, not page order.
    EXPECT_EQ(seen, (std::vector<PageNum>{PageNum(22), PageNum(21)}));
    st.reset();
    EXPECT_EQ(st.touchedPages(), 0u);
    EXPECT_EQ(st.totalAccesses(PageNum(22)), 0u);
    st.record(PageNum(21), 2);
    EXPECT_EQ(st.touchedPages(), 1u);
    EXPECT_EQ(st.majoritySocket(PageNum(21)), 2);
}

TEST(DenseTables, RegionMoveSkipsPagesOutsideThePageMap)
{
    // Region 1 spans pages 16..31 but the map covers only 20..27:
    // Algorithm 1 reads the homes of all 16 pages (below and past
    // the range) and moves just the mapped ones.
    RegionTracker tracker(16, 16, kRegion, kPartial);
    mem::PageMap pages(17, kPartial);
    MigrationEngine engine(MigrationConfig{}, 16, true, kRegion, 42);
    for (std::uint64_t p = 20; p < 28; ++p)
        pages.setHome(PageNum(p), 3);
    for (int s = 0; s < 16; ++s)
        tracker.record(1 * kRegion, s, 100);
    auto plan = engine.decidePhase(tracker, pages, 100000, 1);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].from, 3);
    EXPECT_EQ(plan[0].to, 16);
    EXPECT_EQ(pages.pagesAt(16), 8u);
    EXPECT_EQ(pages.totalPages(), 8u);
    EXPECT_EQ(pages.home(PageNum(16)), mem::invalidNode);
    EXPECT_EQ(pages.home(PageNum(31)), mem::invalidNode);
}

} // anonymous namespace
} // namespace core
} // namespace starnuma
