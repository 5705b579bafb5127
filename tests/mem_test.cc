/**
 * @file
 * Tests for the memory substrate: set-associative cache, DRAM
 * channel/controller queuing, page map with first touch, and the
 * MESI directory's 3-hop/4-hop block-transfer classification.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/dram.hh"
#include "mem/page_map.hh"
#include "sim/rng.hh"

namespace starnuma
{
namespace mem
{
namespace
{

// --- Cache ---

TEST(Cache, MissThenHit)
{
    Cache c({4096, 4});
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x13f, false).hit); // same block
    EXPECT_FALSE(c.access(0x140, false).hit); // next block
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // Direct-mapped-by-sets: 2 sets x 2 ways, 64B blocks = 256B.
    Cache c({256, 2});
    // Three distinct blocks mapping to set 0 (stride = 2 blocks).
    c.access(0 * 128, false);
    c.access(1 * 128 * 2, false);
    c.access(2 * 128 * 2, false); // evicts the LRU (block 0)
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(256));
    EXPECT_TRUE(c.contains(512));
}

TEST(Cache, LruRespectsRecency)
{
    Cache c({256, 2}); // 2 sets, 2 ways
    c.access(0, false);    // set 0
    c.access(256, false);  // set 0
    c.access(0, false);    // touch block 0 again
    auto r = c.access(512, false); // evicts 256, not 0
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 256u);
    EXPECT_TRUE(c.contains(0));
}

TEST(Cache, DirtyVictimReported)
{
    Cache c({256, 2});
    c.access(0, true); // store
    c.access(256, false);
    auto r = c.access(512, false);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 0u);
    EXPECT_TRUE(r.victimDirty);
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache c({4096, 4});
    c.access(0x1000, false);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));
}

TEST(Cache, InvalidatePageDropsAllBlocks)
{
    Cache c({1 << 20, 16});
    for (Addr a = 0x4000; a < 0x5000; a += blockBytes)
        c.access(a, false);
    c.access(0x8000, false);
    EXPECT_EQ(c.invalidatePage(0x4123), 64);
    EXPECT_TRUE(c.contains(0x8000));
}

TEST(Cache, ResetClearsEverything)
{
    Cache c({4096, 4});
    c.access(0x40, true);
    c.reset();
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_EQ(c.hits() + c.misses(), 0u);
}

TEST(Cache, HitRateTracksAccesses)
{
    Cache c({1 << 16, 8});
    for (int rep = 0; rep < 4; ++rep)
        for (Addr a = 0; a < 64 * 16; a += 64)
            c.access(a, false);
    // 16 misses, 48 hits.
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.75);
}

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<Addr, int>>
{
};

TEST_P(CacheGeometry, WorkingSetSmallerThanCacheAlwaysHitsOnReuse)
{
    auto [size, ways] = GetParam();
    Cache c({size, ways});
    Addr working_set = size / 2;
    for (Addr a = 0; a < working_set; a += blockBytes)
        c.access(a, false);
    for (Addr a = 0; a < working_set; a += blockBytes)
        EXPECT_TRUE(c.access(a, false).hit) << "addr " << a;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometry,
    ::testing::Values(std::pair<Addr, int>{4096, 1},
                      std::pair<Addr, int>{32768, 8},
                      std::pair<Addr, int>{1 << 20, 16},
                      std::pair<Addr, int>{8 << 20, 16}));

// --- Cache vs. the array-of-lines LRU model it replaced ---

/**
 * Reference model: the cache as it was before the structure-of-arrays
 * layout, one 24-byte line (tag, 64-bit last use, valid, dirty) per
 * way, scanned in way order. Its victim rule is the contract the
 * compact layout must keep: the highest-index invalid way, else the
 * valid way with the smallest last use.
 */
class LineLruCache
{
  public:
    explicit LineLruCache(const CacheConfig &config) : ways(config.ways)
    {
        numSets = 1;
        while (numSets < config.sizeBytes / (blockBytes * ways))
            numSets <<= 1;
        lines.assign(numSets * ways, Line{});
    }

    CacheAccess
    access(Addr addr, bool write)
    {
        Addr block = blockAddr(addr);
        Line *set = setOf(block);
        ++useClock;
        CacheAccess result;
        Line *lru = &set[0];
        for (int w = 0; w < ways; ++w) {
            Line &line = set[w];
            if (line.valid && line.tag == block) {
                line.lastUse = useClock;
                line.dirty |= write;
                ++hits;
                result.hit = true;
                return result;
            }
            if (!line.valid)
                lru = &line;
            else if (lru->valid && line.lastUse < lru->lastUse)
                lru = &line;
        }
        ++misses;
        if (lru->valid) {
            ++evictions;
            result.evicted = true;
            result.victim = lru->tag;
            result.victimDirty = lru->dirty;
        }
        *lru = Line{block, useClock, true, write};
        return result;
    }

    bool
    invalidate(Addr addr)
    {
        Addr block = blockAddr(addr);
        Line *set = setOf(block);
        for (int w = 0; w < ways; ++w) {
            if (set[w].valid && set[w].tag == block) {
                set[w].valid = false;
                set[w].dirty = false;
                return true;
            }
        }
        return false;
    }

    int
    invalidatePage(Addr addr)
    {
        int dropped = 0;
        for (Addr b = pageAddr(addr); b < pageAddr(addr) + pageBytes;
             b += blockBytes)
            dropped += invalidate(b);
        return dropped;
    }

    void
    reset()
    {
        lines.assign(lines.size(), Line{});
        useClock = hits = misses = evictions = 0;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    Line *
    setOf(Addr block)
    {
        return &lines[((block / blockBytes) & (numSets - 1)) * ways];
    }

    int ways;
    std::size_t numSets;
    std::vector<Line> lines;
    std::uint64_t useClock = 0;
};

struct DifferentialCase
{
    const char *name;
    CacheConfig config;
    int seed;
};

class CacheDifferential
    : public ::testing::TestWithParam<DifferentialCase>
{
};

/**
 * Random access/write/invalidate/invalidatePage/reset streams give
 * the same hit, victim and dirty-victim on every access, and the
 * same counters at the end, as the reference model (three resets
 * split the stream into four). Addresses cover
 * four times the capacity, mostly in page-local runs, so sets fill,
 * evict, and mix valid with invalidated ways.
 */
TEST_P(CacheDifferential, MatchesArrayOfLinesLru)
{
    const DifferentialCase &tc = GetParam();
    Cache cache(tc.config);
    LineLruCache ref(tc.config);
    Rng rng(static_cast<std::uint64_t>(tc.seed));
    const std::uint32_t span =
        static_cast<std::uint32_t>(tc.config.sizeBytes * 4);
    Addr addr = 0;
    for (int i = 0; i < 300000; ++i) {
        if (rng.chance(0.2))
            addr = rng.range32(span);
        else
            addr = pageAddr(addr) + rng.range32(pageBytes);
        std::uint32_t op = rng.range32(1000);
        if (op < 20) {
            EXPECT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                << "op " << i;
        } else if (op < 22) {
            EXPECT_EQ(cache.invalidatePage(addr),
                      ref.invalidatePage(addr))
                << "op " << i;
        } else if (i % 100000 == 50000) {
            cache.reset();
            ref.reset();
        } else {
            bool write = rng.chance(0.3);
            CacheAccess got = cache.access(addr, write);
            CacheAccess want = ref.access(addr, write);
            ASSERT_EQ(got.hit, want.hit) << "op " << i;
            ASSERT_EQ(got.evicted, want.evicted) << "op " << i;
            ASSERT_EQ(got.victim, want.victim) << "op " << i;
            ASSERT_EQ(got.victimDirty, want.victimDirty) << "op " << i;
        }
    }
    EXPECT_EQ(cache.hits(), ref.hits);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.evictions(), ref.evictions);
    EXPECT_GT(cache.evictions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(
        // The capture-time L1+L2 filter.
        DifferentialCase{"filter256k8w", {256 * 1024, 8}, 1},
        // A step-C socket LLC.
        DifferentialCase{"llc2m16w", {2 * 1024 * 1024, 16}, 2},
        DifferentialCase{"tiny2w", {1024, 2}, 3}),
    [](const ::testing::TestParamInfo<DifferentialCase> &param) {
        return std::string(param.param.name);
    });

// --- DRAM ---

TEST(Dram, UnloadedLatencyMatchesConfig)
{
    DramChannel ch(DramConfig{});
    EXPECT_EQ(ch.unloadedLatency(), nsToCycles(50.0));
    EXPECT_EQ(ch.access(Cycles(0), 0x0), nsToCycles(50.0));
}

TEST(Dram, SameBankAccessesSerialize)
{
    DramConfig cfg;
    DramChannel ch(cfg);
    Cycles a1 = ch.access(Cycles(0), 0x0);
    Cycles a2 = ch.access(Cycles(0), 0x0); // same bank
    EXPECT_GE(a2 - a1, nsToCycles(cfg.bankBusyNs) - Cycles(1));
}

TEST(Dram, DifferentBanksOverlap)
{
    DramConfig cfg;
    DramChannel ch(cfg);
    Cycles a1 = ch.access(Cycles(0), 0 * blockBytes);
    Cycles a2 = ch.access(Cycles(0), 1 * blockBytes); // adjacent bank
    // Only the shared data bus separates them.
    EXPECT_EQ(a2 - a1, serializationCycles(blockBytes, cfg.busGbps));
}

TEST(Dram, ControllerInterleavesChannels)
{
    MemoryController mc(2, DramConfig{});
    Cycles a1 = mc.access(Cycles(0), 0 * blockBytes);
    Cycles a2 = mc.access(Cycles(0), 1 * blockBytes); // other channel
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(mc.requests(), 2u);
}

TEST(Dram, ResetContentionRestoresUnloaded)
{
    MemoryController mc(1, DramConfig{});
    for (int i = 0; i < 100; ++i)
        mc.access(Cycles(0), 0);
    mc.resetContention();
    EXPECT_EQ(mc.access(Cycles(0), 0), mc.unloadedLatency());
}

TEST(Dram, SameRowHammerPipelinesThroughRowBuffer)
{
    DramConfig cfg;
    DramChannel ch(cfg);
    Cycles last;
    for (int i = 0; i < 64; ++i)
        last = ch.access(Cycles(0), 0); // same block: row hits after #1
    EXPECT_GE(last, 63 * nsToCycles(cfg.rowHitNs));
    EXPECT_LT(last, 63 * nsToCycles(cfg.bankBusyNs));
    EXPECT_EQ(ch.rowHits(), 63u);
    EXPECT_GT(ch.meanQueueDelay(), 0.0);
}

TEST(Dram, RowConflictsPayFullRowCycle)
{
    DramConfig cfg;
    DramChannel ch(cfg);
    // Alternate between two rows of the same bank: every access is
    // a row miss and serializes at the full row-cycle time.
    Addr stride = cfg.rowBytes * cfg.banks;
    Cycles last;
    for (int i = 0; i < 32; ++i)
        last = ch.access(Cycles(0), (i % 2) * stride);
    EXPECT_EQ(ch.rowHits(), 0u);
    EXPECT_GE(last, 31 * nsToCycles(cfg.bankBusyNs));
}

// --- PageMap ---

/** Pages the page maps below cover. */
constexpr PageRange kPages{PageNum(0), 16};

TEST(PageMap, FirstTouchSticks)
{
    PageMap pm(17, kPages);
    EXPECT_EQ(pm.home(PageNum(5)), invalidNode);
    EXPECT_EQ(pm.touch(PageNum(5), 3), 3);
    EXPECT_EQ(pm.touch(PageNum(5), 9), 3); // later toucher does not move it
    EXPECT_EQ(pm.home(PageNum(5)), 3);
    EXPECT_EQ(pm.pagesAt(3), 1u);
    EXPECT_EQ(pm.firstTouchPages(), 1u);
}

TEST(PageMap, SetHomeMovesCounts)
{
    PageMap pm(17, kPages);
    pm.touch(PageNum(1), 0);
    pm.touch(PageNum(2), 0);
    pm.setHome(PageNum(1), 16); // migrate to pool
    EXPECT_EQ(pm.pagesAt(0), 1u);
    EXPECT_EQ(pm.pagesAt(16), 1u);
    EXPECT_EQ(pm.home(PageNum(1)), 16);
    EXPECT_EQ(pm.totalPages(), 2u);
}

TEST(PageMap, SetHomeOnUnmappedPageMaps)
{
    PageMap pm(4, kPages);
    pm.setHome(PageNum(7), 2);
    EXPECT_EQ(pm.home(PageNum(7)), 2);
    EXPECT_EQ(pm.pagesAt(2), 1u);
}

TEST(PageMap, ForEachVisitsAll)
{
    PageMap pm(4, kPages);
    pm.touch(PageNum(1), 0);
    pm.touch(PageNum(2), 1);
    pm.touch(PageNum(3), 2);
    int visits = 0;
    pm.forEach([&](PageNum, NodeId) { ++visits; });
    EXPECT_EQ(visits, 3);
}

TEST(PageMapDeathTest, WritesOutsideRangePanic)
{
    PageMap pm(4, PageRange{PageNum(8), 4});
    pm.touch(PageNum(8), 0);
    pm.setHome(PageNum(11), 1);
    EXPECT_DEATH(pm.touch(PageNum(7), 0),
                 "outside the page map's range");
    EXPECT_DEATH(pm.touch(PageNum(12), 0),
                 "outside the page map's range");
    EXPECT_DEATH(pm.setHome(PageNum(7), 1),
                 "outside the page map's range");
    EXPECT_DEATH(pm.setHome(PageNum(12), 1),
                 "outside the page map's range");
}

TEST(PageMap, ReadsOutsideRangeAreUnmapped)
{
    PageMap pm(4, PageRange{PageNum(8), 4});
    pm.touch(PageNum(8), 2);
    EXPECT_EQ(pm.home(PageNum(7)), invalidNode);
    EXPECT_EQ(pm.home(PageNum(12)), invalidNode);
    EXPECT_EQ(pm.home(PageNum(0)), invalidNode);
    EXPECT_EQ(pm.home(PageNum::max()), invalidNode);

    PageMap empty(4, PageRange{});
    EXPECT_EQ(empty.home(PageNum(0)), invalidNode);
    EXPECT_EQ(empty.totalPages(), 0u);
}

TEST(PageMap, ForEachFollowsFirstMappingOrder)
{
    PageMap pm(4, kPages);
    pm.touch(PageNum(9), 0);
    pm.setHome(PageNum(2), 1);
    pm.touch(PageNum(5), 2);
    pm.setHome(PageNum(9), 3); // a move keeps the page's position
    std::vector<std::pair<PageNum, NodeId>> seen;
    pm.forEach([&](PageNum page, NodeId home) {
        seen.emplace_back(page, home);
    });
    std::vector<std::pair<PageNum, NodeId>> want{
        {PageNum(9), 3}, {PageNum(2), 1}, {PageNum(5), 2}};
    EXPECT_EQ(seen, want);
}

// --- Directory ---

TEST(Directory, CleanReadIsNotBlockTransfer)
{
    Directory dir(16);
    auto r = dir.access(0x1000, 0, false, 5);
    EXPECT_FALSE(r.blockTransfer);
    EXPECT_EQ(dir.sharers(0x1000), 1);
}

TEST(Directory, DirtyReadTriggersBlockTransfer)
{
    Directory dir(16);
    dir.access(0x1000, 2, true, 5); // socket 2 owns dirty
    auto r = dir.access(0x1000, 7, false, 5);
    EXPECT_TRUE(r.blockTransfer);
    EXPECT_EQ(r.owner, 2);
    EXPECT_FALSE(r.viaPool); // home is a socket: 3-hop shape
    EXPECT_EQ(dir.dirtyOwner(0x1000), -1); // downgraded
    EXPECT_EQ(dir.sharers(0x1000), 2);
}

TEST(Directory, PoolHomedTransferIsViaPool)
{
    Directory dir(16);
    dir.access(0x2000, 1, true, 16); // home = pool node
    auto r = dir.access(0x2000, 9, false, 16);
    EXPECT_TRUE(r.blockTransfer);
    EXPECT_TRUE(r.viaPool); // 4-hop R->H->O->H->R shape
    EXPECT_EQ(dir.poolTransfers(), 1u);
}

TEST(Directory, WriteInvalidatesSharers)
{
    Directory dir(16);
    for (NodeId s = 0; s < 4; ++s)
        dir.access(0x3000, s, false, 0);
    auto r = dir.access(0x3000, 0, true, 0);
    EXPECT_EQ(r.invalidations, 3);
    EXPECT_EQ(dir.sharers(0x3000), 1);
    EXPECT_EQ(dir.dirtyOwner(0x3000), 0);
}

TEST(Directory, WriteByOwnerNoTransfer)
{
    Directory dir(16);
    dir.access(0x4000, 3, true, 1);
    auto r = dir.access(0x4000, 3, true, 1);
    EXPECT_FALSE(r.blockTransfer);
    EXPECT_EQ(r.invalidations, 0);
}

TEST(Directory, EvictionErasesEmptyEntries)
{
    Directory dir(16);
    dir.access(0x5000, 4, false, 0);
    EXPECT_TRUE(dir.cached(0x5000));
    dir.evict(0x5000, 4);
    EXPECT_FALSE(dir.cached(0x5000));
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

TEST(Directory, EvictDirtyOwnerClearsOwnership)
{
    Directory dir(16);
    dir.access(0x6000, 4, true, 0);
    dir.access(0x6000, 5, false, 0); // 5 shares too
    dir.evict(0x6000, 4);
    EXPECT_EQ(dir.dirtyOwner(0x6000), -1);
    EXPECT_EQ(dir.sharers(0x6000), 1);
}

TEST(Directory, TransactionCountsAccumulate)
{
    Directory dir(16);
    dir.access(0x10, 0, true, 1);
    dir.access(0x10, 1, false, 1); // BT
    dir.access(0x10, 2, true, 1);  // invalidations
    EXPECT_EQ(dir.transactions(), 3u);
    EXPECT_EQ(dir.blockTransfers(), 1u);
    EXPECT_GE(dir.invalidations(), 2u);
    dir.reset();
    EXPECT_EQ(dir.transactions(), 0u);
    EXPECT_FALSE(dir.cached(0x10));
}

class DirectorySharing : public ::testing::TestWithParam<int>
{
};

TEST_P(DirectorySharing, SharerCountMatchesReaders)
{
    int readers = GetParam();
    Directory dir(16);
    for (NodeId s = 0; s < readers; ++s)
        dir.access(0xbeef00, s, false, 15);
    EXPECT_EQ(dir.sharers(0xbeef00), readers);
}

INSTANTIATE_TEST_SUITE_P(UpToAllSockets, DirectorySharing,
                         ::testing::Values(1, 2, 4, 8, 16));

} // anonymous namespace
} // namespace mem
} // namespace starnuma
