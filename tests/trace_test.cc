/**
 * @file
 * Tests for the trace substrate: record packing, capture filtering,
 * setup-mode first touch, and the sharing-profile analysis behind
 * Figs 2 and 13. The byte encoding is tested in
 * columnar_trace_test.cc.
 */

#include <gtest/gtest.h>

#include "trace/capture.hh"
#include "trace/profile.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace trace
{
namespace
{

TEST(MemRecord, PacksAddressAndWriteFlag)
{
    MemRecord r(123, 0xdeadbeef, true);
    EXPECT_EQ(r.instr, 123u);
    EXPECT_EQ(r.vaddr(), 0xdeadbeefu);
    EXPECT_TRUE(r.isWrite());
    MemRecord ro(7, 0x1000, false);
    EXPECT_FALSE(ro.isWrite());
    EXPECT_EQ(ro.vaddr(), 0x1000u);
}

TEST(Capture, AllocIsPageAlignedAndDisjoint)
{
    CaptureContext ctx(2);
    Addr a = ctx.alloc(100);
    Addr b = ctx.alloc(5000);
    EXPECT_EQ(a % pageBytes, 0u);
    EXPECT_EQ(b % pageBytes, 0u);
    EXPECT_GE(b, a + pageBytes);
    EXPECT_EQ(ctx.footprint(), 3 * pageBytes);
}

TEST(Capture, FilterSuppressesHits)
{
    CaptureContext ctx(1, {1024, 4});
    Addr a = ctx.alloc(pageBytes);
    ctx.load(0, a);
    ctx.load(0, a);      // filter hit: no record
    ctx.load(0, a + 8);  // same block: no record
    ctx.load(0, a + 64); // new block: record
    auto t = ctx.take("x", 4);
    ASSERT_EQ(t.perThread[0].size(), 2u);
    EXPECT_EQ(t.perThread[0][0].vaddr(), a);
    EXPECT_EQ(t.perThread[0][1].vaddr(), a + 64);
}

TEST(Capture, MemoryOpsCountAsInstructions)
{
    CaptureContext ctx(1);
    Addr a = ctx.alloc(pageBytes);
    ctx.instr(0, 10);
    ctx.load(0, a);
    ctx.store(0, a);
    EXPECT_EQ(ctx.instructions(0), 12u);
}

TEST(Capture, SetupModeRecordsFirstTouchOnly)
{
    CaptureContext ctx(4);
    Addr a = ctx.alloc(4 * pageBytes);
    ctx.beginSetup();
    ctx.store(1, a);              // thread 1 touches page 0
    ctx.store(2, a + pageBytes);  // thread 2 touches page 1
    ctx.store(3, a);              // page 0 already touched
    ctx.load(3, a + 2 * pageBytes); // reads do not claim pages
    ctx.endSetup();
    EXPECT_EQ(ctx.instructions(1), 0u);
    auto t = ctx.take("x", 0);
    ASSERT_EQ(t.firstTouches.size(), 2u);
    EXPECT_EQ(t.firstTouches[0].page, pageNumber(a));
    EXPECT_EQ(t.firstTouches[0].thread, 1);
    EXPECT_EQ(t.firstTouches[1].thread, 2);
    EXPECT_EQ(t.totalRecords(), 0u);
}

TEST(Capture, PerThreadStreamsIndependent)
{
    CaptureContext ctx(2);
    Addr a = ctx.alloc(pageBytes);
    ctx.load(0, a);
    ctx.load(1, a); // both threads miss their own filter
    auto t = ctx.take("x", 1);
    EXPECT_EQ(t.perThread[0].size(), 1u);
    EXPECT_EQ(t.perThread[1].size(), 1u);
}

TEST(Capture, WrittenPagesAscendAcrossAllocations)
{
    CaptureContext ctx(2);
    Addr a = ctx.alloc(3 * pageBytes);
    Addr b = ctx.alloc(pageBytes);
    ctx.store(1, b);
    ctx.store(0, a + 2 * pageBytes);
    ctx.load(0, a + pageBytes); // reads do not mark pages
    ctx.store(1, a);
    ctx.store(0, a); // filter hits still mark their page
    auto t = ctx.take("x", 1);
    EXPECT_EQ(t.writtenPages,
              (std::vector<PageNum>{pageNumber(a),
                                    pageNumber(a + 2 * pageBytes),
                                    pageNumber(b)}));
}

TEST(CaptureDeathTest, AccessOutsideAllocationPanics)
{
    CaptureContext ctx(1);
    Addr a = ctx.alloc(pageBytes);
    ctx.load(0, a + pageBytes - 1);
    EXPECT_DEATH(ctx.load(0, a + pageBytes),
                 "outside the capture's allocations");
    EXPECT_DEATH(ctx.store(0, a - 1),
                 "outside the capture's allocations");
    ctx.beginSetup();
    EXPECT_DEATH(ctx.store(0, a + pageBytes),
                 "outside the capture's allocations");
}

TEST(Trace, RecordsPerKiloInstruction)
{
    WorkloadTrace t;
    t.threads = 2;
    t.instructionsPerThread = 1000;
    t.perThread.resize(2);
    for (int i = 0; i < 10; ++i)
        t.perThread[0].emplace_back(i, 0x1000 + i * 64, false);
    EXPECT_DOUBLE_EQ(t.recordsPerKiloInstruction(), 5.0);
}

TEST(Trace, PageSpanScansHandBuiltTraces)
{
    WorkloadTrace t;
    t.threads = 2;
    t.perThread.resize(2);
    t.perThread[0].emplace_back(1, 7 * pageBytes + 8, false);
    t.perThread[1].emplace_back(1, 3 * pageBytes, true);
    t.firstTouches.push_back({PageNum(2), 1});
    PageRange span = pageSpan(t);
    EXPECT_EQ(span.base, PageNum(2));
    EXPECT_EQ(span.pages, 6u);
}

TEST(Trace, PageSpanUsesTheStampedRange)
{
    WorkloadTrace t;
    t.minPage = PageNum(10);
    t.maxPage = PageNum(19);
    PageRange span = pageSpan(t);
    EXPECT_EQ(span.base, PageNum(10));
    EXPECT_EQ(span.pages, 10u);
}

TEST(Trace, PageSpanOfEmptyTraceIsEmpty)
{
    WorkloadTrace t;
    t.threads = 4;
    t.perThread.resize(4);
    EXPECT_EQ(pageSpan(t).pages, 0u);
}

TEST(TraceDeathTest, PageSpanOverTheLimitPanics)
{
    WorkloadTrace t;
    t.workload = "wide";
    t.minPage = PageNum(1);
    t.maxPage = PageNum(maxSpanPages); // exactly at the limit
    EXPECT_EQ(pageSpan(t).pages, maxSpanPages);
    t.maxPage = PageNum(maxSpanPages + 1);
    EXPECT_DEATH(pageSpan(t), "trace 'wide' spans 1048577 pages");
}

// --- SharingProfile ---

WorkloadTrace
syntheticTrace()
{
    // 8 threads = 4 sockets x 2 cores. Page 0: private to socket 0.
    // Page 1: shared by all 4 sockets, heavily accessed, written.
    // Page 2: shared by 2 sockets, read-only.
    WorkloadTrace t;
    t.threads = 8;
    t.instructionsPerThread = 100;
    t.perThread.resize(8);
    auto at = [](int page, int off) {
        return static_cast<Addr>(page) * pageBytes + off;
    };
    t.perThread[0].emplace_back(1, at(0, 0), false);
    for (int th = 0; th < 8; ++th)
        for (int i = 0; i < 10; ++i)
            t.perThread[th].emplace_back(2 + i, at(1, th * 64 + i),
                                         th == 3);
    t.perThread[0].emplace_back(50, at(2, 0), false);
    t.perThread[2].emplace_back(50, at(2, 8), false);
    return t;
}

TEST(SharingProfile, DegreeDistribution)
{
    auto t = syntheticTrace();
    SharingProfile p(t, 2, 4);
    EXPECT_EQ(p.totalPages(), 3u);
    EXPECT_DOUBLE_EQ(p.pageFraction(1), 1.0 / 3);
    EXPECT_DOUBLE_EQ(p.pageFraction(2), 1.0 / 3);
    EXPECT_DOUBLE_EQ(p.pageFraction(4), 1.0 / 3);
    EXPECT_DOUBLE_EQ(p.pageFraction(3), 0.0);
}

TEST(SharingProfile, AccessConcentration)
{
    auto t = syntheticTrace();
    SharingProfile p(t, 2, 4);
    // 80 of 83 accesses hit the 4-sharer page.
    EXPECT_NEAR(p.accessFraction(4), 80.0 / 83, 1e-9);
    EXPECT_NEAR(p.accessesAbove(2), 80.0 / 83, 1e-9);
    EXPECT_DOUBLE_EQ(p.pagesWithAtMost(2), 2.0 / 3);
}

TEST(SharingProfile, ReadWriteClassification)
{
    auto t = syntheticTrace();
    SharingProfile p(t, 2, 4);
    EXPECT_DOUBLE_EQ(p.readWriteAccessFraction(4), 1.0);
    EXPECT_DOUBLE_EQ(p.readWritePageFraction(2), 0.0);
}

TEST(SharingProfile, InterChassisEstimate)
{
    // §II-B: accesses to fully shared pages distribute uniformly;
    // with 4 chassis of 4 sockets, 75% land on a remote chassis.
    EXPECT_DOUBLE_EQ(SharingProfile::interChassisFraction(16, 4),
                     0.75);
}

} // anonymous namespace
} // namespace trace
} // namespace starnuma
