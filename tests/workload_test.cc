/**
 * @file
 * Workload tests: graph generation, kernel correctness (the
 * algorithms compute real answers), capture integration (every
 * workload reaches its instruction target and produces the access
 * structure the paper relies on — e.g., POA stays thread-private
 * while BFS shares widely).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "trace/profile.hh"
#include "workloads/gap.hh"
#include "workloads/genomics.hh"
#include "workloads/graph.hh"
#include "workloads/kvstore.hh"
#include "workloads/tpcc.hh"
#include "workloads/workload.hh"

namespace starnuma
{
namespace workloads
{
namespace
{

/** 8-thread scale that keeps workload tests quick. */
SimScale
testScale()
{
    SimScale s;
    s.sockets = 4;
    s.socketsPerChassis = 2;
    s.coresPerSocket = 2;
    s.phases = 1;
    s.phaseInstructions = 30000;
    return s;
}

// --- Graph generation ---

TEST(CsrGraph, KroneckerShape)
{
    Rng rng(1);
    CsrGraph g = CsrGraph::kronecker(10, 8, rng);
    EXPECT_EQ(g.vertices, 1024u);
    // Undirected: directed edge count = 2 * edges = n * degree.
    EXPECT_EQ(g.directedEdges(), 1024u * 8);
    EXPECT_EQ(g.offsets.size(), 1025u);
    EXPECT_EQ(g.offsets.back(), g.directedEdges());
}

TEST(CsrGraph, AdjacencySortedAndSymmetric)
{
    Rng rng(2);
    CsrGraph g = CsrGraph::kronecker(9, 6, rng);
    for (std::uint32_t v = 0; v < g.vertices; ++v)
        for (std::uint64_t e = g.offsets[v] + 1; e < g.offsets[v + 1];
             ++e)
            EXPECT_LE(g.neighbors[e - 1], g.neighbors[e]);
    // Spot-check symmetry: u in adj(v) iff v in adj(u).
    for (std::uint32_t v = 0; v < 64; ++v) {
        for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1];
             ++e) {
            std::uint32_t u = g.neighbors[e];
            bool found = std::binary_search(
                g.neighbors.begin() + g.offsets[u],
                g.neighbors.begin() + g.offsets[u + 1], v);
            EXPECT_TRUE(found) << v << "<->" << u;
        }
    }
}

TEST(CsrGraph, SkewedDegreeDistribution)
{
    Rng rng(3);
    CsrGraph g = CsrGraph::kronecker(12, 16, rng);
    std::uint64_t max_degree = 0;
    for (std::uint32_t v = 0; v < g.vertices; ++v)
        max_degree = std::max(max_degree, g.degree(v));
    // R-MAT hubs: the max degree far exceeds the average.
    EXPECT_GT(max_degree, 10u * 16);
}

TEST(CsrGraph, DeterministicForSeed)
{
    Rng a(7), b(7);
    CsrGraph g1 = CsrGraph::kronecker(8, 4, a);
    CsrGraph g2 = CsrGraph::kronecker(8, 4, b);
    EXPECT_EQ(g1.neighbors, g2.neighbors);
}

// --- Capture integration for every workload ---

/** Small instances so tests stay fast. */
std::unique_ptr<Workload>
makeSmall(const std::string &name)
{
    if (name == "bfs")
        return std::make_unique<Bfs>(1, 12, 8);
    if (name == "cc")
        return std::make_unique<ConnectedComponents>(1, 12, 8);
    if (name == "sssp")
        return std::make_unique<Sssp>(1, 12, 8);
    if (name == "tc")
        return std::make_unique<TriangleCount>(1, 12, 8);
    if (name == "masstree")
        return std::make_unique<KvStore>(1, 1u << 14);
    if (name == "tpcc")
        return std::make_unique<Tpcc>(1, 8, 4, 60, 500);
    if (name == "fmi")
        return std::make_unique<Fmi>(1, 1u << 15);
    if (name == "poa")
        return std::make_unique<Poa>(1, 200, 400);
    return makeWorkload(name);
}

class WorkloadCapture
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadCapture, ReachesInstructionTargetOnEveryThread)
{
    SimScale s = testScale();
    auto w = makeSmall(GetParam());
    auto t = w->capture(s);
    EXPECT_EQ(t.threads, s.threads());
    EXPECT_EQ(t.workload, GetParam());
    EXPECT_GT(t.footprintBytes, 0u);
    EXPECT_GT(t.totalRecords(), 100u);
    for (int th = 0; th < t.threads; ++th) {
        // Monotone instruction stamps within each thread.
        std::uint64_t last = 0;
        for (const auto &r : t.perThread[th]) {
            EXPECT_GE(r.instr, last);
            last = r.instr;
        }
        EXPECT_LE(last, s.phaseInstructions + 300000);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadCapture,
                         ::testing::ValuesIn(workloadNames()));

TEST(WorkloadRegistry, NamesRoundTrip)
{
    auto names = workloadNames();
    EXPECT_EQ(names.size(), 8u);
    for (const auto &n : names)
        EXPECT_EQ(makeWorkload(n)->name(), n);
}

TEST(WorkloadRegistry, FirstTouchesCoverFootprint)
{
    SimScale s = testScale();
    auto t = makeSmall("bfs")->capture(s);
    // Partitioned setup should first-touch from many threads.
    std::set<ThreadId> touchers;
    for (const auto &ft : t.firstTouches)
        touchers.insert(ft.thread);
    EXPECT_GT(touchers.size(), 4u);
}

/**
 * captureWorkload always runs the kernel and writes nothing: the
 * artifact store, whose keys carry the code epoch, is the only
 * persistent cache, so no trace captured by older kernel code can
 * be served.
 */
TEST(CaptureWorkload, LeavesWorkingDirectoryEmpty)
{
    namespace fs = std::filesystem;
    std::string dir = ::testing::TempDir() + "capture_cwd_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    std::optional<std::string> saved_env;
    if (const char *env = std::getenv("STARNUMA_CACHE_DIR"))
        saved_env = env;
    ::unsetenv("STARNUMA_CACHE_DIR");
    fs::path saved_cwd = fs::current_path();
    fs::current_path(dir);

    auto a = captureWorkload("bfs", SimScale::tiny(), 1);
    auto b = captureWorkload("bfs", SimScale::tiny(), 1);
    std::vector<std::string> left;
    for (const auto &entry : fs::recursive_directory_iterator(dir))
        left.push_back(entry.path().string());

    fs::current_path(saved_cwd);
    if (saved_env)
        ::setenv("STARNUMA_CACHE_DIR", saved_env->c_str(), 1);
    fs::remove_all(dir);

    EXPECT_EQ(left, std::vector<std::string>{});
    EXPECT_GT(a.totalRecords(), 0u);
    EXPECT_EQ(a.totalRecords(), b.totalRecords());
}

// --- Kernel correctness ---

TEST(KvStore, LookupsReturnLoadedValues)
{
    KvStore kv(1, 4096);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    kv.setup(ctx, s);
    ctx.endSetup();
    std::uint64_t v = 0;
    ASSERT_TRUE(kv.lookupValue(0, &v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(kv.lookupValue(4095, &v));
    EXPECT_EQ(v, 4095u * 3 + 1);
    EXPECT_FALSE(kv.lookupValue(4096, &v));
    EXPECT_GE(kv.treeDepth(), 3);
}

TEST(KvStore, StepsUpdateValues)
{
    KvStore kv(1, 1024);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    kv.setup(ctx, s);
    ctx.endSetup();
    for (int i = 0; i < 2000; ++i)
        kv.step(i % s.threads(), ctx);
    // Some writes must have changed values from the loaded form.
    int changed = 0;
    for (std::uint64_t k = 0; k < 1024; ++k) {
        std::uint64_t v = 0;
        ASSERT_TRUE(kv.lookupValue(k, &v));
        changed += (v != k * 3 + 1);
    }
    EXPECT_GT(changed, 100);
}

TEST(Tpcc, TransactionsCommitAndBalance)
{
    Tpcc tpcc(1, 8, 4, 60, 500);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    tpcc.setup(ctx, s);
    ctx.endSetup();
    for (int i = 0; i < 4000; ++i)
        tpcc.step(i % s.threads(), ctx);
    EXPECT_GT(tpcc.committedNewOrders(), 500u);
    EXPECT_GT(tpcc.committedPayments(), 500u);
    double ytd = 0;
    for (int wh = 0; wh < 8; ++wh)
        ytd += tpcc.warehouseYtd(wh);
    EXPECT_GT(ytd, 0.0); // payments accumulated
}

TEST(Fmi, CountFindsPlantedPatterns)
{
    Fmi fmi(1, 1u << 14);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    fmi.setup(ctx, s);
    ctx.endSetup();
    // Any substring of the text must be found at least once; a
    // pattern absent from ACGT space must not match.
    EXPECT_GE(fmi.count(std::string{0, 1, 2}), 0u);
    EXPECT_GT(fmi.count(std::string{1}), 1000u); // single char
}

TEST(Poa, AlignmentsProgress)
{
    Poa poa(1, 100, 200);
    SimScale s = testScale();
    trace::CaptureContext ctx(s.threads());
    ctx.beginSetup();
    poa.setup(ctx, s);
    ctx.endSetup();
    for (int i = 0; i < 3000; ++i)
        for (ThreadId t = 0; t < s.threads(); ++t)
            poa.step(t, ctx);
    for (ThreadId t = 0; t < s.threads(); ++t)
        EXPECT_GT(poa.alignmentsDone(t), 0u);
}

// --- Access-structure properties the paper relies on ---

TEST(AccessStructure, PoaIsThreadPrivate)
{
    SimScale s = testScale();
    auto t = makeSmall("poa")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    // Every page touched by exactly one socket: POA is the
    // NUMA-insensitive control (§V-A).
    EXPECT_GT(p.pageFraction(1), 0.99);
}

TEST(AccessStructure, BfsSharesWidely)
{
    SimScale s = testScale();
    s.phaseInstructions = 150000; // enough sweeps to mix sharers
    auto t = makeSmall("bfs")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    // Accesses concentrate on shared pages (Fig 2's vagabond
    // concentration): most accesses leave the private bucket.
    EXPECT_GT(p.accessesAbove(1), 0.5);
    EXPECT_GT(p.accessFraction(s.sockets), 0.05);
}

TEST(AccessStructure, TcIsMostlyReadOnlyShared)
{
    SimScale s = testScale();
    auto t = makeSmall("tc")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    // Fig 13: TC's widely shared pages are read-only (the CSR).
    EXPECT_LT(p.readWriteAccessFraction(s.sockets), 0.2);
    EXPECT_GT(p.accessesAbove(1), 0.5);
}

TEST(AccessStructure, TpccIsMostlyPartitioned)
{
    SimScale s = testScale();
    auto t = makeSmall("tpcc")->capture(s);
    trace::SharingProfile p(t, s.coresPerSocket, s.sockets);
    // Home-warehouse affinity keeps most pages narrow; the item
    // table and remote touches create a shared tail.
    EXPECT_GT(p.pageFraction(1), 0.3);
    EXPECT_GT(p.accessesAbove(1), 0.05);
}

} // anonymous namespace
} // namespace workloads
} // namespace starnuma
