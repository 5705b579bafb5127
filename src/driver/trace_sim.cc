#include "driver/trace_sim.hh"

#include <algorithm>
#include <bit>

#include "core/oracle.hh"
#include "core/region_tracker.hh"
#include "core/tlb_annex.hh"
#include "core/tlb_directory.hh"
#include "mem/page_map.hh"
#include "sim/annotations.hh"
#include "sim/logging.hh"
#include "sim/obs/audit.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/timeseries.hh"
#include "sim/rng.hh"
#include "trace/columnar.hh"

namespace starnuma
{
namespace driver
{

std::uint64_t
Checkpoint::migratedPages(int pages_per_region) const
{
    return regionMigrations.size() *
               static_cast<std::uint64_t>(pages_per_region) +
           pageMigrations.size();
}

TraceSim::TraceSim(const SystemSetup &system_setup,
                   const SimScale &sim_scale)
    : setup(system_setup), scale(sim_scale)
{
    sn_assert(scale.sockets == setup.sys.sockets,
              "scale/system socket mismatch (%d vs %d)",
              scale.sockets, setup.sys.sockets);
}

NodeId
TraceSim::socketOf(ThreadId t) const
{
    return t / scale.coresPerSocket;
}

// lint: hot-path root of the whole replay: everything reachable
// from here runs per record unless explicitly marked cold.
TraceSimResult
TraceSim::run(const trace::WorkloadTrace &trace,
              const PhaseStateHooks *)
{
    sn_assert(trace.threads == scale.threads(),
              "trace captured for %d threads, scale expects %d",
              trace.threads, scale.threads());
    TraceSimResult result =
        setup.placement == Placement::StaticOracle
            ? runStaticOracle(trace)
            : runDynamic(trace);
    if (setup.replicateReadOnly)
        result.replication = core::planReplication(
            trace, scale.coresPerSocket, setup.sys.sockets,
            setup.replication);
    return result;
}

namespace
{

/**
 * Snapshot a PageMap over @p span into a checkpoint's page list. The
 * scan runs in slot order, which is page order.
 */
// lint: cold-path one full-map copy per phase checkpoint
PageHomes
snapshot(const mem::PageMap &pm, PageRange span)
{
    PageHomes out;
    out.reserve(pm.totalPages());
    for (std::uint64_t slot = 0; slot < span.pages; ++slot) {
        PageNum page = span.base + PageNum(slot);
        NodeId home = pm.home(page);
        if (home != mem::invalidNode)
            out.emplace_back(page, home);
    }
    return out;
}

/**
 * Stream handles and delta state of the replay's per-phase
 * telemetry (DESIGN.md §14). An aggregate with no user constructor
 * so declaring one stays off the hot path; all real work happens in
 * the cold helpers below, sampled once per migration phase with the
 * phase number as timestamp.
 */
struct ReplayTelemetry
{
    obs::TimeSeries::StreamId poolPages = 0;
    obs::TimeSeries::StreamId tlbMisses = 0;
    obs::TimeSeries::StreamId tlbMissRate = 0;
    obs::TimeSeries::StreamId migratedPages = 0;
    obs::TimeSeries::StreamId shootdowns = 0;
    std::uint64_t lastMisses = 0;
    std::uint64_t lastAccesses = 0;
    std::uint64_t lastShootdowns = 0;
};

// lint: cold-path telemetry stream registration, once per run when
// the TimeSeriesSink is enabled
STARNUMA_COLD_PATH void
initReplayTelemetry(ReplayTelemetry &t, obs::TimeSeries &series,
                    bool star, int phases)
{
    std::size_t cap = static_cast<std::size_t>(phases);
    t.migratedPages = series.addStream("migratedPages", cap);
    if (!star)
        return;
    t.poolPages = series.addStream("poolPages", cap);
    t.tlbMisses = series.addStream("tlbMisses", cap);
    t.tlbMissRate = series.addStream("tlbMissRate", cap);
    t.shootdowns = series.addStream("shootdownsSent", cap);
}

// lint: cold-path once-per-phase telemetry sample, behind the
// per-run sink gate
STARNUMA_COLD_PATH void
sampleReplayPhase(ReplayTelemetry &t, obs::TimeSeries &series,
                  std::uint64_t phase, std::uint64_t regions_moved,
                  std::uint64_t pages_moved, bool star,
                  const core::RegionTracker &tracker,
                  const mem::PageMap &pm, NodeId pool_node,
                  const std::vector<core::TlbAnnex> &tlbs,
                  const core::TlbDirectory &tlb_dir)
{
    std::uint64_t migrated =
        regions_moved *
            static_cast<std::uint64_t>(tracker.pagesPerRegion()) +
        pages_moved;
    series.sample(t.migratedPages, phase,
                  static_cast<double>(migrated));
    if (!star)
        return;
    series.sample(t.poolPages, phase,
                  static_cast<double>(pm.pagesAt(pool_node)));
    std::uint64_t misses = 0, accesses = 0;
    for (const core::TlbAnnex &tlb : tlbs) {
        misses += tlb.tlbMisses();
        accesses += tlb.tlbMisses() + tlb.tlbHits();
    }
    std::uint64_t dm = misses - t.lastMisses;
    std::uint64_t da = accesses - t.lastAccesses;
    series.sample(t.tlbMisses, phase, static_cast<double>(dm));
    series.sample(t.tlbMissRate, phase,
                  da ? static_cast<double>(dm) /
                           static_cast<double>(da)
                     : 0.0);
    t.lastMisses = misses;
    t.lastAccesses = accesses;
    std::uint64_t sent = tlb_dir.shootdownsSent();
    series.sample(t.shootdowns, phase,
                  static_cast<double>(sent - t.lastShootdowns));
    t.lastShootdowns = sent;
}

// Checkpoint artifact format v2 ("STARCKP2"): varint/delta coded
// with the sim/bytes.hh primitives. Collections are written in
// sorted page order so artifacts stay byte-identical across runs.
constexpr std::uint64_t checkpointMagic = 0x53544152434b5032ULL;

// Fixed 8-byte little-endian doubles (not the varint encoding of
// sim/bytes.hh): format v2 predates the cache and its byte stream
// must not change.
void
putDouble(std::vector<std::uint8_t> &out, double v)
{
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i)
        out.push_back(
            static_cast<std::uint8_t>(bits >> (8 * i)));
}

bool
getDouble(trace::ByteReader &r, double &v)
{
    std::uint64_t bits = 0;
    if (!r.getU64(bits))
        return false;
    v = std::bit_cast<double>(bits);
    return true;
}

void
putPageHome(std::vector<std::uint8_t> &buf, const PageHomes &home)
{
    putVarint(buf, home.size());
    std::uint64_t prev = 0;
    for (const auto &[page, node] : home) {
        putVarint(buf, page.value() - prev);
        prev = page.value();
        putVarint(buf, zigzag(node));
    }
}

/** Decode a page list; pages must strictly increase. */
bool
getPageHome(trace::ByteReader &r, PageHomes &home)
{
    std::uint64_t n = 0;
    if (!r.getVarint(n) || n > r.remaining())
        return false;
    home.reserve(n);
    std::uint64_t page = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t delta = 0, node = 0;
        if (!r.getVarint(delta) || !r.getVarint(node))
            return false;
        if (i > 0 && page + delta <= page)
            return false;
        page += delta;
        home.emplace_back(PageNum(page),
                          static_cast<NodeId>(trace::unzigzag(node)));
    }
    return true;
}

void
putRegionMigrations(std::vector<std::uint8_t> &buf,
                    const std::vector<core::RegionMigration> &ms)
{
    putVarint(buf, ms.size());
    std::uint64_t prev_region = 0;
    for (const core::RegionMigration &m : ms) {
        putVarint(buf, zigzag(static_cast<std::int64_t>(
                           m.region - prev_region)));
        prev_region = m.region;
        putVarint(buf, zigzag(m.from));
        putVarint(buf, zigzag(m.to));
        buf.push_back(m.victimEviction ? 1 : 0);
    }
}

// lint: cold-path checkpoint-artifact decode, bounded by stored
// counts, never per replay record
bool
getRegionMigrations(trace::ByteReader &r,
                    std::vector<core::RegionMigration> &ms)
{
    std::uint64_t n = 0;
    if (!r.getVarint(n) || n > r.remaining())
        return false;
    ms.reserve(n);
    std::uint64_t region = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t delta = 0, from = 0, to = 0;
        std::uint8_t victim = 0;
        if (!r.getVarint(delta) || !r.getVarint(from) ||
            !r.getVarint(to) || !r.getBytes(&victim, 1))
            return false;
        region +=
            static_cast<std::uint64_t>(trace::unzigzag(delta));
        ms.push_back({region,
                      static_cast<NodeId>(trace::unzigzag(from)),
                      static_cast<NodeId>(trace::unzigzag(to)),
                      victim != 0});
    }
    return true;
}

void
putPageMigrations(std::vector<std::uint8_t> &buf,
                  const std::vector<core::PageMigration> &ms)
{
    putVarint(buf, ms.size());
    std::uint64_t prev_page = 0;
    for (const core::PageMigration &m : ms) {
        putVarint(buf, zigzag(static_cast<std::int64_t>(
                           m.page.value() - prev_page)));
        prev_page = m.page.value();
        putVarint(buf, zigzag(m.from));
        putVarint(buf, zigzag(m.to));
    }
}

// lint: cold-path checkpoint-artifact decode, bounded by stored
// counts, never per replay record
bool
getPageMigrations(trace::ByteReader &r,
                  std::vector<core::PageMigration> &ms)
{
    std::uint64_t n = 0;
    if (!r.getVarint(n) || n > r.remaining())
        return false;
    ms.reserve(n);
    std::uint64_t page = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t delta = 0, from = 0, to = 0;
        if (!r.getVarint(delta) || !r.getVarint(from) ||
            !r.getVarint(to))
            return false;
        page += static_cast<std::uint64_t>(trace::unzigzag(delta));
        ms.push_back({PageNum(page),
                      static_cast<NodeId>(trace::unzigzag(from)),
                      static_cast<NodeId>(trace::unzigzag(to))});
    }
    return true;
}

void
encodeCheckpoint(std::vector<std::uint8_t> &buf,
                 const Checkpoint &cp)
{
    putPageHome(buf, cp.pageHome);
    putRegionMigrations(buf, cp.regionMigrations);
    putPageMigrations(buf, cp.pageMigrations);
}

bool
decodeCheckpoint(trace::ByteReader &r, Checkpoint &cp)
{
    return getPageHome(r, cp.pageHome) &&
           getRegionMigrations(r, cp.regionMigrations) &&
           getPageMigrations(r, cp.pageMigrations);
}

} // anonymous namespace

// lint: artifact-root step_b_checkpoint
TraceSimResult
TraceSim::runDynamic(const trace::WorkloadTrace &trace)
{
    const bool star = setup.sys.hasPool;
    const int nodes = setup.sys.sockets + (star ? 1 : 0);

    TraceSimResult result;
    result.footprintPages = pagesIn(trace.footprintBytes);
    result.poolCapacityPages =
        star ? static_cast<std::uint64_t>(
                   static_cast<double>(result.footprintPages) *
                   setup.sys.poolCapacityFraction)
             : 0;

    // Every page and region table is a flat array over the trace's
    // page span.
    const PageRange span = trace::pageSpan(trace);
    mem::PageMap pm(nodes, span);
    for (const auto &ft : trace.firstTouches)
        pm.touch(ft.page, socketOf(ft.thread));

    // Scale the per-phase migration budget to the footprint so the
    // modeled migration traffic stays proportional to the shrunken
    // phase length (the paper tunes an absolute limit per workload
    // at its own scale, §IV-C).
    core::MigrationConfig mig_cfg = setup.migration;
    if (mig_cfg.scaleLimitToFootprint) {
        mig_cfg.migrationLimitPages =
            static_cast<std::uint32_t>(std::max<std::uint64_t>(
                64, static_cast<std::uint64_t>(
                        static_cast<double>(
                            result.footprintPages) *
                        mig_cfg.migrationLimitFraction)));
    }

    // StarNUMA machinery: shared metadata region, per-core TLB
    // annexes, Algorithm 1 engine.
    core::RegionTracker tracker(mig_cfg.counterBits,
                                setup.sys.sockets,
                                setup.regionBytes, span);
    std::vector<core::TlbAnnex> tlbs;
    // Per-task RNG stream: the engine's tie-break generator is
    // seeded from the task identity (workload, config), never shared
    // between experiments, so concurrent sweep entries draw the same
    // sequences they would serially.
    core::MigrationEngine engine(mig_cfg, setup.sys.sockets, star,
                                 setup.regionBytes, span,
                                 taskSeed({trace.workload,
                                           setup.name}));
    core::TlbDirectory tlb_dir(trace.threads,
                               star ? span : PageRange{});
    if (star) {
        // lint: cold-path per-run TLB construction, before replay
        tlbs.reserve(trace.threads);
        for (ThreadId t = 0; t < trace.threads; ++t) {
            // lint: cold-path per-run TLB construction
            tlbs.emplace_back(core::TlbConfig{}, tracker,
                              socketOf(t));
            tlbs.back().attachDirectory(&tlb_dir, t);
        }
    }

    // Baseline machinery: zero-cost perfect page knowledge, same
    // migration budget as StarNUMA gets.
    core::PerfectPagePolicy perfect(setup.sys.sockets,
                                    star ? PageRange{} : span,
                                    mig_cfg.migrationLimitPages);

    std::vector<std::size_t> cursor(trace.threads, 0);
    std::vector<core::RegionMigration> pending_regions;
    std::vector<core::PageMigration> pending_pages;

    // lint: cold-path once-per-run telemetry gate behind one
    // relaxed load; off in benchmarked replay.
    const bool sample_ts = obs::TimeSeriesSink::global().enabled();
    ReplayTelemetry telemetry;
    if (sample_ts)
        initReplayTelemetry(telemetry, result.timeseries, star,
                            scale.phases);

    for (int phase = 0; phase < scale.phases; ++phase) {
        Checkpoint cp;
        cp.pageHome = snapshot(pm, span);
        cp.regionMigrations = std::move(pending_regions);
        cp.pageMigrations = std::move(pending_pages);
        pending_regions.clear();
        pending_pages.clear();

        std::uint64_t phase_end =
            static_cast<std::uint64_t>(phase + 1) *
            scale.phaseInstructions;

        if (star) {
            // Marker bits are set once per migration phase so hot,
            // never-evicted TLB entries still report (§III-D1).
            for (auto &tlb : tlbs)
                tlb.setMarkers();
        }

        for (ThreadId t = 0; t < trace.threads; ++t) {
            const auto &recs = trace.perThread[t];
            NodeId socket = socketOf(t);
            std::size_t &i = cursor[t];
            while (i < recs.size() && recs[i].instr <= phase_end) {
                PageNum page = pageNumber(recs[i].vaddr());
                // Consecutive records to the same page replay as
                // one batch: the page is mapped and TLB-resident
                // after the first access, so the remainder are
                // pure counter updates (identical results).
                std::size_t j = i + 1;
                while (j < recs.size() &&
                       recs[j].instr <= phase_end &&
                       pageNumber(recs[j].vaddr()) == page)
                    ++j;
                std::uint64_t run = j - i;
                pm.touch(page, socket);
                if (star)
                    tlbs[t].recordAccessRun(recs[i].vaddr(), run);
                else
                    perfect.recordAccess(
                        page, socket,
                        static_cast<std::uint32_t>(run));
                i = j;
            }
        }

        if (star) {
            for (auto &tlb : tlbs)
                tlb.flushAll();
            pending_regions = engine.decidePhase(
                tracker, pm, result.poolCapacityPages, phase + 1);
            // DiDi-style shootdowns: each migrated page only
            // interrupts the cores whose TLBs hold it (§III-D3).
            int ppr = tracker.pagesPerRegion();
            for (const auto &m : pending_regions) {
                PageNum first = tracker.firstPage(m.region);
                for (int p = 0; p < ppr; ++p) {
                    PageNum page = first + PageNum(p);
                    core::TlbHolderMask mask =
                        tlb_dir.holders(page);
                    tlb_dir.shootdown(page);
                    for (ThreadId t = 0; t < trace.threads; ++t)
                        if (mask.test(t))
                            tlbs[t].shootdown(page);
                }
            }
        } else {
            pending_pages = perfect.decidePhase(pm);
        }
        if (sample_ts)
            sampleReplayPhase(telemetry, result.timeseries,
                              static_cast<std::uint64_t>(phase + 1),
                              pending_regions.size(),
                              pending_pages.size(), star, tracker,
                              pm, setup.sys.poolNode(), tlbs,
                              tlb_dir);
        // lint: cold-path one checkpoint per phase
        result.checkpoints.push_back(std::move(cp));
    }

    result.migratedRegions = engine.migratedRegions();
    result.migratedPagesTotal =
        engine.migratedRegions() * tracker.pagesPerRegion() +
        perfect.migratedPages();
    result.poolMigrationFraction = engine.poolMigrationFraction();
    result.victimEvictions = engine.victimEvictions();
    result.pingPongSuppressed = engine.pingPongSuppressed();
    if (star) {
        result.pagesInPool = pm.pagesAt(setup.sys.poolNode());
        result.tlbShootdownsSent = tlb_dir.shootdownsSent();
        result.tlbShootdownsSaved = tlb_dir.shootdownsSaved();
    }
    // lint: cold-path once-per-run stats export behind one relaxed
    // load; off in benchmarked replay.
    if (obs::StatsSink::global().enabled()) {
        obs::Registry reg;
        engine.registerStats(reg, "engine");
        if (star)
            tlb_dir.registerStats(reg, "tlbDirectory");
        result.stats = reg.snapshot();
    }
    // lint: cold-path once-per-run audit export behind one relaxed
    // load; off in benchmarked replay.
    if (obs::AuditSink::global().enabled())
        result.audit = engine.audit();
    return result;
}

// lint: artifact-root step_b_checkpoint
TraceSimResult
TraceSim::runStaticOracle(const trace::WorkloadTrace &trace)
{
    const bool star = setup.sys.hasPool;
    const int nodes = setup.sys.sockets + (star ? 1 : 0);

    TraceSimResult result;
    result.footprintPages = pagesIn(trace.footprintBytes);
    result.poolCapacityPages =
        star ? static_cast<std::uint64_t>(
                   static_cast<double>(result.footprintPages) *
                   setup.sys.poolCapacityFraction)
             : 0;

    const PageRange span = trace::pageSpan(trace);

    // A priori knowledge: feed the whole run into the oracle.
    core::OraclePlacement oracle(setup.sys.sockets, span);
    for (ThreadId t = 0; t < trace.threads; ++t) {
        const auto &recs = trace.perThread[t];
        NodeId socket = socketOf(t);
        for (std::size_t i = 0; i < recs.size();) {
            PageNum page = pageNumber(recs[i].vaddr());
            std::size_t j = i + 1;
            while (j < recs.size() &&
                   pageNumber(recs[j].vaddr()) == page)
                ++j;
            oracle.recordAccess(
                page, socket, static_cast<std::uint32_t>(j - i));
            i = j;
        }
    }

    mem::PageMap pm(nodes, span);
    // Pages only touched during setup fall back to first touch.
    for (const auto &ft : trace.firstTouches)
        pm.touch(ft.page, socketOf(ft.thread));
    oracle.place(pm, star, result.poolCapacityPages,
                 setup.migration.poolSharerThreshold);

    auto map = snapshot(pm, span);
    for (int phase = 0; phase < scale.phases; ++phase) {
        Checkpoint cp;
        cp.pageHome = map;
        // lint: cold-path one checkpoint per phase
        result.checkpoints.push_back(std::move(cp));
    }
    if (star)
        result.pagesInPool = pm.pagesAt(setup.sys.poolNode());
    return result;
}

// lint: artifact-root step_b_checkpoint
std::vector<std::uint8_t>
TraceSimResult::serialize() const
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, checkpointMagic);
    putVarint(buf, checkpoints.size());
    putVarint(buf, poolCapacityPages);
    putVarint(buf, footprintPages);
    putVarint(buf, migratedRegions);
    putVarint(buf, migratedPagesTotal);
    putVarint(buf, victimEvictions);
    putVarint(buf, pingPongSuppressed);
    putVarint(buf, pagesInPool);
    putDouble(buf, poolMigrationFraction);
    for (const Checkpoint &cp : checkpoints)
        encodeCheckpoint(buf, cp);
    putVarint(buf, replication.replicated.size());
    std::uint64_t prev = 0;
    for (PageNum page : replication.replicated) {
        putVarint(buf, page.value() - prev);
        prev = page.value();
    }
    putDouble(buf, replication.capacityOverhead);
    return buf;
}

// lint: cold-path artifact decode, once per load
bool
TraceSimResult::deserialize(ByteReader &r)
{
    std::uint64_t magic = 0, n_cp = 0;
    if (!r.getVarint(magic) || magic != checkpointMagic ||
        !r.getVarint(n_cp))
        return false;
    std::uint64_t scalars[7] = {};
    for (std::uint64_t &s : scalars)
        if (!r.getVarint(s))
            return false;
    poolCapacityPages = scalars[0];
    footprintPages = scalars[1];
    migratedRegions = scalars[2];
    migratedPagesTotal = scalars[3];
    victimEvictions = scalars[4];
    pingPongSuppressed = scalars[5];
    pagesInPool = scalars[6];
    if (!getDouble(r, poolMigrationFraction))
        return false;
    if (n_cp > r.remaining())
        return false; // implausible count: refuse to allocate
    checkpoints.assign(n_cp, {});
    for (Checkpoint &cp : checkpoints)
        if (!decodeCheckpoint(r, cp))
            return false;
    std::uint64_t n_rep = 0;
    if (!r.getVarint(n_rep) || n_rep > r.remaining())
        return false;
    replication.replicated.clear();
    std::uint64_t page = 0;
    for (std::uint64_t i = 0; i < n_rep; ++i) {
        std::uint64_t delta = 0;
        if (!r.getVarint(delta))
            return false;
        page += delta;
        replication.replicated.push_back(PageNum(page));
    }
    return getDouble(r, replication.capacityOverhead);
}

} // namespace driver
} // namespace starnuma
