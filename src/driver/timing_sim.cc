#include "driver/timing_sim.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/replication.hh"
#include "core/shootdown.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/dram.hh"
#include "mem/page_map.hh"
#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/logging.hh"
#include "sim/obs/obs.hh"
#include "sim/obs/timeseries.hh"
#include "sim/obs/trace_session.hh"
#include "sim/parallel.hh"
#include "sim/stats.hh"
#include "topology/topology.hh"

namespace starnuma
{
namespace driver
{

namespace
{

/** Cycles between light-core pacing updates. */
constexpr Cycles pacerPeriod{20000};

/** Every Nth miss issues a tracker-metadata update write (§IV-C:
 *  "we model the additional memory traffic required for tracker
 *  updates"); approximates the PTW's annex flush rate. */
constexpr std::uint64_t metadataWritePeriod = 32;

/** Page data is streamed in chunks of this many blocks. */
constexpr int migrationChunkBlocks = 4;

/** Bytes on the wire per migration chunk (data plus a header per
 *  block). */
constexpr Addr migrationChunkBytes =
    migrationChunkBlocks * (blockBytes + 8);

/** Stream/counter names per topology::LinkType index. */
constexpr const char *linkTypeNames[3] = {"upi", "numalink", "cxl"};

/** Zero-padded snapshot prefix of one phase ("phase03."). */
std::string
phasePrefix(int phase)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "phase%02d.", phase);
    return buf;
}

/**
 * Hardware state that persists across the run's phases: caches and
 * directory stay warm (the phases of one workload run on the same
 * machine); link and DRAM queue occupancy is reset per phase since
 * checkpoints are far apart in time.
 */
struct MachineState
{
    MachineState(const SystemSetup &setup, const SimScale &scale,
                 const CoreModel &core, PageRange page_span,
                 const FlatSet<PageNum> &replicated_pages)
        : topo(setup.sys), directory(setup.sys.sockets),
          pages(setup.sys.sockets + (setup.sys.hasPool ? 1 : 0),
                page_span),
          span(page_span), migrating(page_span.pages),
          replicated(page_span.pages)
    {
        // Replicated pages come from step B's replay of the same
        // trace, so they lie in the span; one outside it could
        // never be accessed here anyway.
        for (PageNum page : replicated_pages)
            if (span.slot(page) < span.pages)
                replicated[span.slot(page)] = 1;

        mem::CacheConfig llc_cfg{
            static_cast<Addr>(scale.coresPerSocket) *
                core.llcBytesPerCore,
            16};
        mem::DramConfig dram_cfg;
        dram_cfg.accessNs = setup.sys.dramNs;
        for (int s = 0; s < setup.sys.sockets; ++s) {
            llcs.emplace_back(llc_cfg);
            mcs.emplace_back(setup.sys.channelsPerSocket, dram_cfg);
        }
        if (setup.sys.hasPool)
            mcs.emplace_back(setup.sys.poolChannels, dram_cfg);
    }

    void
    newPhase(const Checkpoint &checkpoint)
    {
        topo.resetContention();
        for (auto &mc : mcs)
            mc.resetContention();
        // Overlay this phase's checkpointed placement on the page
        // table (sized to the trace's page span, like step B's).
        for (const auto &[page, home] : checkpoint.pageHome)
            pages.setHome(page, home);
        std::fill(migrating.begin(), migrating.end(), Cycles());
    }

    /** Slot of trace page @p page in the dense per-page tables. */
    std::uint64_t
    slot(PageNum page) const
    {
        std::uint64_t i = span.slot(page);
        sn_assert(i < span.pages, "page %llu outside the trace's span",
                  static_cast<unsigned long long>(page.value()));
        return i;
    }

    /** Register the machine's component stats (links, LLCs, DRAM,
     *  directory) into @p r. */
    // lint: cold-path stats export, once per run when observing
    void
    registerStats(obs::Registry &r) const
    {
        topo.registerStats(r, "topo");
        directory.registerStats(r, "directory");
        int sockets = static_cast<int>(llcs.size());
        for (int s = 0; s < sockets; ++s) {
            std::string node = "socket" + std::to_string(s);
            llcs[s].registerStats(r, node + ".llc");
            mcs[s].registerStats(r, node + ".dram");
        }
        if (static_cast<int>(mcs.size()) > sockets)
            mcs[sockets].registerStats(r, "pool.dram");
    }

    topology::Topology topo;
    std::vector<mem::Cache> llcs;
    std::vector<mem::MemoryController> mcs;
    mem::Directory directory;
    mem::PageMap pages;

    // Dense per-page tables over the trace's page span, indexed by
    // slot(page), like the PageMap (DESIGN.md §12).
    PageRange span;
    // Cycle at which each page's in-flight migration lands; Cycles()
    // when none is in flight this phase (an arrival is never 0).
    std::vector<Cycles> migrating;
    // Mutable copy of the §V-F replication set: a write to a
    // replicated page de-replicates it for the rest of the run.
    std::vector<std::uint8_t> replicated;
};

/** What a step-C event does when it fires (PhaseSim::dispatch). */
enum class EventKind : std::uint8_t
{
    Issue,          ///< a core's next issue slot
    Pace,           ///< light-core pacing and epoch telemetry
    Migrate,        ///< a modeled page or region migration starts
    MigrationChunk, ///< one chunk of page data enters the link
    Writeback,      ///< a dirty victim reaches its home's DRAM
    MissResume,     ///< a miss stalled on a migration resumes
    AtHome,         ///< a request reached the home: DRAM access
    HomeRead,       ///< the home's DRAM access finished
    AtOwner,        ///< a forwarded request reached the owner
    AtPool,         ///< 4-hop data is back at the pool
    Complete,       ///< the data reached the requester
};

/**
 * One step-C event: its kind and a plain-data payload. Field use
 * per kind: misses (MissResume .. Complete) carry the requesting
 * core, the miss's instruction, issue cycle, access class and stats
 * flag, the block (the virtual address for MissResume, whose flag
 * is the write bit) and the home/owner nodes. Migrate moves @c instr
 * pages starting at the page of @c addr from @c home to @c owner;
 * MigrationChunk streams the page of @c addr from @c home to
 * @c owner, flagged on its last chunk; Writeback writes block
 * @c addr at node @c home.
 */
struct StepEvent
{
    EventKind kind = EventKind::Issue;
    AccessType type = AccessType::Local;
    bool flag = false;
    bool countStats = false;
    NodeId home = 0;
    NodeId owner = 0;
    std::uint32_t core = 0;
    std::uint64_t instr = 0;
    Cycles issued{};
    Addr addr = 0;
};

/**
 * One phase's event-driven simulation. Every resource (link
 * direction, DRAM bank/bus) is claimed by an event executing at the
 * moment the request actually reaches it, so the fluid queues see
 * arrivals in true time order.
 */
class PhaseSim
{
  public:
    PhaseSim(const SystemSetup &setup, const SimScale &scale,
             const TimingOptions &options, const CoreModel &core,
             const trace::WorkloadTrace &trace,
             const Checkpoint &checkpoint, int phase,
             MachineState &machine);

    void run();

    /** Fold this phase's post-warmup stats into @p m. */
    void accumulate(RunMetrics &m) const;

    /** Register this phase's post-warmup stats into @p r. */
    void registerStats(obs::Registry &r) const;

    /** Simulated cycles this phase covered. */
    Cycles horizon() const { return endCycle; }

    /** This phase's per-epoch telemetry (DESIGN.md §14): link
     *  utilization and DRAM request rate per pacer epoch, sampled
     *  on the simulated clock. The pid-2 trace counter events
     *  re-emit these samples, so the two channels cannot drift. */
    const obs::TimeSeries &timeseries() const { return series; }

  private:
    struct Outstanding
    {
        std::uint64_t instr = 0;
        bool complete = false;
    };

    struct CoreState
    {
        ThreadId thread = 0;
        NodeId socket = 0;
        bool detailed = false;
        std::size_t idx = 0; ///< next record
        std::size_t end = 0;
        std::uint64_t lastInstr = 0;
        Cycles readyTime; ///< compute-pacing issue point
        bool blocked = false; ///< stalled on oldest outstanding
        bool issuePending = false; ///< an issue event is scheduled
        bool done = false;
        Cycles doneCycle;
        Cycles warmupCycle;
        bool warmupCrossed = false;
        // In-flight misses, oldest first: a ring of core.mshrs
        // slots starting at outstanding[ring].
        std::size_t ring = 0;
        int head = 0;
        int inFlight = 0;
    };

    /** Execute one popped event. */
    void dispatch(const StepEvent &ev);

    // --- in-flight miss ring of a core ---
    /** Slot in outstanding of @p c's @p i-th oldest in-flight miss. */
    std::size_t
    inFlightSlot(const CoreState &c, int i) const
    {
        int j = c.head + i;
        return c.ring + static_cast<std::size_t>(
                            j < core.mshrs ? j : j - core.mshrs);
    }
    void retireCompleted(CoreState &c);

    // --- core actors ---
    void scheduleIssue(CoreState &c, Cycles when);
    STARNUMA_AUDITED_SYMBOL void issueNext(CoreState &c);
    void onComplete(CoreState &c, std::uint64_t instr);
    bool frontBlocks(const CoreState &c,
                     std::uint64_t next_instr) const;
    void finishCore(CoreState &c);
    void pace();
    STARNUMA_COLD_PATH void sampleEpoch(bool emit_trace);
    bool allDetailedDone() const;

    // --- memory system (asynchronous request path) ---
    /** Start a miss's journey; completion is an event at 'done'. */
    void startMiss(CoreState &c, Addr vaddr, bool write,
                   std::uint64_t instr, bool count_stats);
    STARNUMA_AUDITED_SYMBOL void
    missAfterStall(CoreState &c, Addr vaddr, bool write,
                   std::uint64_t instr, bool count_stats,
                   Cycles issued);
    void finishMiss(CoreState &c, std::uint64_t instr,
                    AccessType type, bool count_stats,
                    Cycles issued, Cycles done);

    void applyMigration(Cycles t, PageNum first_page, int pages_n,
                        NodeId from, NodeId to);

    const SystemSetup &setup;
    const SimScale &scale;
    const TimingOptions &options;
    const CoreModel &core;
    const trace::WorkloadTrace &trace;

    std::uint64_t windowStart;
    std::uint64_t windowEnd;
    std::uint64_t warmupInstr;
    Cycles onChip;

    EventQueue<StepEvent> q;
    MachineState &machine;
    topology::Topology &topo;
    std::vector<mem::Cache> &llcs;
    std::vector<mem::MemoryController> &mcs;
    mem::Directory &directory;
    mem::PageMap &pages;
    std::vector<CoreState> cores;
    std::vector<Outstanding> outstanding; ///< every core's ring
    int phase_;
    double lightCpi;
    std::uint64_t lastPaceInstr = 0;
    Cycles lastPaceCycle;
    std::uint64_t missCount = 0;
    bool stop = false;
    // Telemetry gates, read once per phase so the event loop never
    // enters the sinks: a trace session records (tracing), and it or
    // a time-series sink wants pacer-epoch samples (sampling).
    bool tracing = false;
    bool sampling = false;

    // Simulated-timeline epoch telemetry: the deterministic series
    // is the single source; trace counter events re-emit from it.
    static constexpr obs::TimeSeries::StreamId noStream = ~0u;
    obs::TimeSeries series;
    std::array<obs::TimeSeries::StreamId, 3> linkStream{};
    obs::TimeSeries::StreamId dramStream = noStream;
    std::array<std::uint64_t, 3> lastLinkBusy{};
    std::uint64_t lastDramRequests = 0;
    Cycles lastTraceCycle;

    // Post-warmup statistics.
    std::uint64_t statInstructions = 0;
    Cycles statCycles;
    std::uint64_t statLlcHits = 0;
    std::uint64_t statDetailedMisses = 0;
    std::array<std::uint64_t, accessTypes> statMix{};
    std::array<stats::Mean, accessTypes> statTypeLatency;
    stats::Mean statLatency;
    stats::Mean statMigStall;
    std::uint64_t statShootdownPages = 0;
    std::uint64_t statCoherence0 = 0;
    Cycles endCycle;
};

// lint: cold-path one-time per-phase construction; telemetry
// stream registration happens here, not on the access path
PhaseSim::PhaseSim(const SystemSetup &system_setup,
                   const SimScale &sim_scale,
                   const TimingOptions &timing_options,
                   const CoreModel &core_model,
                   const trace::WorkloadTrace &workload_trace,
                   const Checkpoint &checkpoint, int phase,
                   MachineState &machine_state)
    : setup(system_setup), scale(sim_scale),
      options(timing_options), core(core_model),
      trace(workload_trace),
      onChip(nsToCycles(setup.sys.onChipNs)),
      // Every core's in-flight misses and issue slot, plus pacing
      // and migration traffic: the working depth, so the slab
      // rarely grows.
      q(static_cast<std::size_t>(sim_scale.threads()) *
            static_cast<std::size_t>(core_model.mshrs + 2) +
        64),
      machine(machine_state), topo(machine.topo),
      llcs(machine.llcs), mcs(machine.mcs),
      directory(machine.directory), pages(machine.pages),
      phase_(phase), lightCpi(core.baseCpi * 2)
{
    machine.newPhase(checkpoint);
    statCoherence0 = directory.transactions();
    tracing = obs::TraceSession::global().enabled();
    sampling = tracing || obs::TimeSeriesSink::global().enabled();

    windowStart = static_cast<std::uint64_t>(phase) *
                  scale.phaseInstructions;
    windowEnd = windowStart + scale.detailInstructions();
    warmupInstr =
        windowStart +
        static_cast<std::uint64_t>(
            static_cast<double>(scale.detailInstructions()) *
            scale.warmupFraction);

    // Cores; the detailed socket is socket 0.
    int threads = options.singleSocketLocal ? scale.coresPerSocket
                                            : scale.threads();
    cores.resize(threads);
    outstanding.resize(static_cast<std::size_t>(threads) *
                       static_cast<std::size_t>(core.mshrs));
    for (ThreadId t = 0; t < threads; ++t) {
        CoreState &c = cores[t];
        c.thread = t;
        c.ring = static_cast<std::size_t>(t) *
                 static_cast<std::size_t>(core.mshrs);
        c.socket = t / scale.coresPerSocket;
        c.detailed = (c.socket == 0);
        const auto &recs = trace.perThread[t];
        auto below = [](const trace::MemRecord &r, std::uint64_t v) {
            return r.instr < v;
        };
        c.idx = std::lower_bound(recs.begin(), recs.end(),
                                 windowStart, below) -
                recs.begin();
        c.end = std::lower_bound(recs.begin(), recs.end(), windowEnd,
                                 below) -
                recs.begin();
        c.lastInstr = windowStart;
    }

    // Telemetry streams: one linkUtil stream per link type present
    // in the topology, plus the aggregate DRAM request rate. The
    // reserve covers a generous-CPI estimate of the phase's pacer
    // epochs so steady-state sampling rarely reallocates (regrowth
    // past it is amortized and off the per-record path anyway).
    std::size_t epochs_est =
        static_cast<std::size_t>(
            static_cast<double>(scale.detailInstructions()) * 4.0 /
            static_cast<double>(pacerPeriod.value())) +
        2;
    linkStream.fill(noStream);
    std::array<int, 3> link_types{};
    for (const auto &link : topo.links())
        ++link_types[static_cast<int>(link.type())];
    for (int k = 0; k < 3; ++k) {
        if (!link_types[k])
            continue;
        linkStream[k] = series.addStream(
            std::string("linkUtil.") + linkTypeNames[k], epochs_est);
    }
    dramStream = series.addStream("dram.requests", epochs_est);

    // Modeled migrations: the window covers the first
    // detailFraction of the phase, so that share of the phase's
    // migrations is modeled (§IV-C) — additionally capped so the
    // modeled page-data streams cannot occupy more than ~10% of a
    // route's time in the window (the remaining migrations still
    // take effect through the checkpoint's page map, exactly like
    // the 90% outside the window).
    int ppr = pagesPerRegion(setup.regionBytes);
    Cycles window_est(
        static_cast<double>(scale.detailInstructions()) *
        core.baseCpi * 4);
    Cycles page_stream = serializationCycles(
        pageBytes + (pageBytes / blockBytes) * 8, 3.0);
    std::size_t page_budget = std::max<std::size_t>(
        2, window_est / (page_stream * 10));

    std::size_t n_regions = std::min<std::size_t>(
        static_cast<std::size_t>(
            static_cast<double>(
                checkpoint.regionMigrations.size()) *
                scale.detailFraction +
            0.999),
        std::max<std::size_t>(1, page_budget / ppr));
    std::size_t n_pages = std::min<std::size_t>(
        static_cast<std::size_t>(
            static_cast<double>(checkpoint.pageMigrations.size()) *
                scale.detailFraction +
            0.999),
        page_budget);
    if (checkpoint.regionMigrations.empty())
        n_regions = 0;
    if (checkpoint.pageMigrations.empty())
        n_pages = 0;

    std::size_t n_migrations = n_regions + n_pages;
    Cycles spacing =
        n_migrations ? std::max(Cycles(2000),
                                window_est / (n_migrations + 1))
                     : window_est;
    Cycles when = spacing;
    for (std::size_t i = 0; i < n_regions; ++i) {
        const auto &m = checkpoint.regionMigrations[i];
        PageNum first = regionFirstPage(m.region, setup.regionBytes);
        q.schedule(when, StepEvent{.kind = EventKind::Migrate,
                                   .home = m.from,
                                   .owner = m.to,
                                   .instr = static_cast<std::uint64_t>(ppr),
                                   .addr = pageBase(first)});
        when += spacing;
    }
    when = spacing + Cycles(1);
    for (std::size_t i = 0; i < n_pages; ++i) {
        const auto &m = checkpoint.pageMigrations[i];
        q.schedule(when, StepEvent{.kind = EventKind::Migrate,
                                   .home = m.from,
                                   .owner = m.to,
                                   .instr = 1,
                                   .addr = pageBase(m.page)});
        when += spacing;
    }
}

// lint: cold-path a few hundred modeled migrations per phase at most
// (the page budget), each remapping pages that are already mapped
void
PhaseSim::applyMigration(Cycles t, PageNum first_page, int pages_n,
                         NodeId from, NodeId to)
{
    // Shootdowns and the page-map update happen up front; the data
    // streams over the interconnect chunk by chunk, and accesses to
    // a page stall until its last chunk has arrived (§IV-C).
    int chunks_per_page =
        static_cast<int>(pageBytes / blockBytes) /
        migrationChunkBlocks;
    Cycles chunk_gap = serializationCycles(
        migrationChunkBytes, std::min({setup.sys.upiGbps,
                               setup.sys.numalinkGbps,
                               setup.sys.cxlGbps}));

    Cycles chunk_time = t;
    for (int p = 0; p < pages_n; ++p) {
        PageNum page = first_page + PageNum(p);
        if (pages.home(page) == mem::invalidNode)
            continue;
        pages.setHome(page, to);
        ++statShootdownPages;
        if (options.softwareShootdowns) {
            // Conventional shootdown: every core takes an IPI and
            // enters the kernel for every migrated page [64].
            core::ShootdownModel model;
            for (CoreState &cs : cores)
                cs.readyTime = std::max(cs.readyTime, t) +
                               model.softwareCostPerCore;
        }
        Addr byte = pageBase(page);
        for (auto &llc : llcs)
            llc.invalidatePage(byte);
        for (Addr b = byte; b < byte + pageBytes; b += blockBytes)
            for (NodeId s = 0; s < setup.sys.sockets; ++s)
                directory.evict(b, s);

        for (int ch = 0; ch < chunks_per_page; ++ch) {
            chunk_time += chunk_gap;
            q.schedule(chunk_time,
                       StepEvent{.kind = EventKind::MigrationChunk,
                                 .flag = ch == chunks_per_page - 1,
                                 .home = from,
                                 .owner = to,
                                 .addr = byte});
        }
        // Conservative availability estimate until the last chunk
        // lands (replaced by the actual arrival, see dispatch()).
        machine.migrating[machine.slot(page)] =
            chunk_time + topo.unloadedOneWay(from, to);
    }
}

// --- memory system ---

void
PhaseSim::finishMiss(CoreState &c, std::uint64_t instr,
                     AccessType type, bool count_stats,
                     Cycles issued, Cycles done)
{
    if (count_stats) {
        ++statMix[static_cast<int>(type)];
        statLatency.sample(
            static_cast<double>((done - issued).value()));
        statTypeLatency[static_cast<int>(type)].sample(
            static_cast<double>((done - issued).value()));
        if (c.detailed)
            ++statDetailedMisses;
    }
    onComplete(c, instr);
}

void
PhaseSim::startMiss(CoreState &c, Addr vaddr, bool write,
                    std::uint64_t instr, bool count_stats)
{
    Cycles t = q.now();
    PageNum page = pageNumber(vaddr);

    // Stall while the page's migration is in flight.
    Cycles resume = machine.migrating[machine.slot(page)];
    if (resume > t) {
        statMigStall.sample(static_cast<double>((resume - t).value()));
        q.schedule(resume,
                   StepEvent{.kind = EventKind::MissResume,
                             .flag = write,
                             .countStats = count_stats,
                             .core = static_cast<std::uint32_t>(c.thread),
                             .instr = instr,
                             .issued = t,
                             .addr = vaddr});
        return;
    }
    missAfterStall(c, vaddr, write, instr, count_stats, t);
}

// lint: hot-path one call per LLC miss
void
PhaseSim::missAfterStall(CoreState &c, Addr vaddr, bool write,
                         std::uint64_t instr, bool count_stats,
                         Cycles issued)
{
    Cycles t = q.now();
    NodeId s = c.socket;
    Addr block = blockAddr(vaddr);
    PageNum page = pageNumber(vaddr);

    NodeId home =
        options.singleSocketLocal ? s : pages.touch(page, s);

    // §V-F replication: reads of a replicated page hit the local
    // replica; a write invalidates every replica (broadcast) and
    // de-replicates the page.
    std::uint8_t &replicated = machine.replicated[machine.slot(page)];
    if (replicated) {
        if (write) {
            replicated = 0;
            for (NodeId x = 0; x < setup.sys.sockets; ++x) {
                if (x == s)
                    continue;
                topo.send(s, x, t, topology::ctrlBytes);
                llcs[x].invalidatePage(pageBase(page));
            }
        } else {
            home = s;
        }
    }

    auto coh = directory.access(block, s, write, home);
    if (coh.invalidatedMask) {
        for (NodeId x = 0; x < setup.sys.sockets; ++x)
            if (coh.invalidatedMask & (1ULL << x))
                llcs[x].invalidate(block);
    }

    // The request travels to the home (the pool for a 4-hop
    // transfer); dispatch() walks the rest of its journey.
    StepEvent ev{.countStats = count_stats,
                 .home = home,
                 .core = static_cast<std::uint32_t>(c.thread),
                 .instr = instr,
                 .issued = issued,
                 .addr = block};
    if (coh.blockTransfer && coh.owner != s) {
        // 3-hop R -> H -> O -> R, or 4-hop R -> H(pool) -> O -> H
        // -> R (Fig 4).
        ev.type = coh.viaPool ? AccessType::BtPool : AccessType::BtSocket;
        if (coh.viaPool)
            ev.home = topo.poolNode();
        ev.owner = coh.owner;
    } else {
        switch (topo.classify(s, home)) {
          case topology::AccessClass::Local:
            ev.kind = EventKind::Complete;
            ev.type = AccessType::Local;
            q.schedule(mcs[s].access(t + onChip, block), ev);
            return;
          case topology::AccessClass::OneHop:
            ev.type = AccessType::OneHop;
            break;
          case topology::AccessClass::TwoHop:
            ev.type = AccessType::TwoHop;
            break;
          default:
            ev.type = AccessType::Pool;
            break;
        }
    }
    ev.kind = EventKind::AtHome;
    q.schedule(topo.send(s, ev.home, t, topology::ctrlBytes), ev);
}

void
PhaseSim::dispatch(const StepEvent &ev)
{
    Cycles now = q.now();
    // A miss's journey: each hop schedules the next with the same
    // payload and a new kind.
    StepEvent next = ev;
    auto hop = [&](EventKind kind, NodeId from, NodeId to,
                   Addr bytes) {
        next.kind = kind;
        q.schedule(topo.send(from, to, now, bytes), next);
    };
    switch (ev.kind) {
      case EventKind::Issue: {
        CoreState &c = cores[ev.core];
        c.issuePending = false;
        issueNext(c);
        break;
      }
      case EventKind::Pace:
        pace();
        break;
      case EventKind::Migrate:
        applyMigration(now, pageNumber(ev.addr),
                       static_cast<int>(ev.instr), ev.home, ev.owner);
        break;
      case EventKind::MigrationChunk: {
        Cycles arr =
            topo.send(ev.home, ev.owner, now, migrationChunkBytes);
        if (ev.flag)
            machine.migrating[machine.slot(pageNumber(ev.addr))] = arr;
        break;
      }
      case EventKind::Writeback:
        mcs[ev.home].access(now, ev.addr);
        break;
      case EventKind::MissResume:
        missAfterStall(cores[ev.core], ev.addr, ev.flag, ev.instr,
                       ev.countStats, ev.issued);
        break;
      case EventKind::AtHome:
        next.kind = EventKind::HomeRead;
        q.schedule(mcs[ev.home].access(now + onChip, ev.addr), next);
        break;
      case EventKind::HomeRead:
        if (ev.type == AccessType::BtSocket ||
            ev.type == AccessType::BtPool)
            // A block transfer forwards the request to the owner.
            hop(EventKind::AtOwner, ev.home, ev.owner,
                topology::ctrlBytes);
        else
            hop(EventKind::Complete, ev.home, cores[ev.core].socket,
                topology::dataBytes);
        break;
      case EventKind::AtOwner:
        // The owner's data goes back directly (3-hop) or through
        // the pool (4-hop).
        if (ev.type == AccessType::BtPool)
            hop(EventKind::AtPool, ev.owner, ev.home,
                topology::dataBytes);
        else
            hop(EventKind::Complete, ev.owner, cores[ev.core].socket,
                topology::dataBytes);
        break;
      case EventKind::AtPool:
        hop(EventKind::Complete, ev.home, cores[ev.core].socket,
            topology::dataBytes);
        break;
      case EventKind::Complete:
        finishMiss(cores[ev.core], ev.instr, ev.type, ev.countStats,
                   ev.issued, now);
        break;
    }
}

// --- core actors ---

void
PhaseSim::retireCompleted(CoreState &c)
{
    while (c.inFlight > 0 && outstanding[inFlightSlot(c, 0)].complete) {
        c.head = c.head + 1 < core.mshrs ? c.head + 1 : 0;
        --c.inFlight;
    }
}

bool
PhaseSim::frontBlocks(const CoreState &c,
                      std::uint64_t next_instr) const
{
    if (c.inFlight == 0)
        return false;
    const Outstanding &front = outstanding[inFlightSlot(c, 0)];
    if (front.complete)
        return false;
    if (c.inFlight >= core.mshrs)
        return true;
    if (c.detailed &&
        front.instr + static_cast<std::uint64_t>(core.robEntries) <=
            next_instr)
        return true;
    return false;
}

void
PhaseSim::scheduleIssue(CoreState &c, Cycles when)
{
    if (c.issuePending || c.done)
        return;
    c.issuePending = true;
    q.schedule(std::max(when, q.now()),
               StepEvent{.kind = EventKind::Issue,
                         .core = static_cast<std::uint32_t>(c.thread)});
}

// lint: hot-path one call per replayed step-C record
void
PhaseSim::issueNext(CoreState &c)
{
    if (c.done)
        return;
    retireCompleted(c);

    if (c.idx >= c.end) {
        if (c.inFlight == 0)
            finishCore(c);
        else
            c.blocked = true; // resume on completion
        return;
    }

    const trace::MemRecord &r = trace.perThread[c.thread][c.idx];
    if (frontBlocks(c, r.instr)) {
        c.blocked = true;
        return;
    }
    Cycles t = q.now();
    if (t < c.readyTime) {
        scheduleIssue(c, c.readyTime);
        return;
    }

    if (c.detailed && !c.warmupCrossed && r.instr >= warmupInstr) {
        c.warmupCrossed = true;
        c.warmupCycle = t;
    }
    bool count_stats = r.instr >= warmupInstr;

    // LLC lookup happens inline; only misses travel.
    NodeId s = c.socket;
    auto look = llcs[s].access(r.vaddr(), r.isWrite());
    ++c.idx;
    std::uint64_t this_instr = r.instr;

    // Compute-pace the next issue. Its LLC set (and, should it
    // miss, its directory entry) is needed when that issue fires,
    // many events from now: start loading both.
    std::uint64_t next_instr = windowEnd;
    if (c.idx < c.end) {
        const trace::MemRecord &next = trace.perThread[c.thread][c.idx];
        next_instr = next.instr;
        llcs[s].prefetch(next.vaddr());
        directory.prefetch(blockAddr(next.vaddr()));
    }
    std::uint64_t gap =
        next_instr > this_instr ? next_instr - this_instr : 1;
    double cpi = c.detailed ? core.baseCpi : lightCpi;
    c.readyTime =
        t + std::max(Cycles(1),
                     Cycles(static_cast<double>(gap) * cpi));
    c.lastInstr = this_instr;

    if (look.hit) {
        if (count_stats)
            ++statLlcHits;
        c.readyTime += c.detailed ? core.llcHitLatency : Cycles();
        scheduleIssue(c, c.readyTime);
        return;
    }

    ++missCount;
    // Victim handling: directory + writeback traffic.
    if (look.evicted) {
        directory.evict(look.victim, s);
        if (look.victimDirty) {
            NodeId vh = options.singleSocketLocal
                            ? s
                            : pages.home(pageNumber(look.victim));
            if (vh == s) {
                mcs[s].access(t, look.victim);
            } else if (vh != mem::invalidNode) {
                Cycles arr =
                    topo.send(s, vh, t, topology::dataBytes);
                q.schedule(arr, StepEvent{.kind = EventKind::Writeback,
                                          .home = vh,
                                          .addr = look.victim});
            }
        }
    }
    // Tracker metadata update traffic (StarNUMA only).
    if (setup.sys.hasPool && (missCount % metadataWritePeriod) == 0)
        mcs[s].access(t, blockAddr(r.vaddr()) ^ 0x3c3cc3c3);

    sn_assert(c.inFlight < core.mshrs, "core %d over its MSHRs",
              c.thread);
    outstanding[inFlightSlot(c, c.inFlight++)] = {this_instr, false};
    startMiss(c, r.vaddr(), r.isWrite(), this_instr, count_stats);
    scheduleIssue(c, c.readyTime);
}

void
PhaseSim::onComplete(CoreState &c, std::uint64_t instr)
{
    // The oldest matching in-flight miss completes.
    for (int i = 0; i < c.inFlight; ++i) {
        Outstanding &o = outstanding[inFlightSlot(c, i)];
        if (!o.complete && o.instr == instr) {
            o.complete = true;
            break;
        }
    }
    retireCompleted(c);
    if (c.blocked) {
        c.blocked = false;
        scheduleIssue(c, std::max(q.now(), c.readyTime));
    }
}

void
PhaseSim::finishCore(CoreState &c)
{
    Cycles t = std::max(q.now(), c.readyTime);
    c.inFlight = 0;
    if (c.lastInstr < windowEnd) {
        t += Cycles(static_cast<double>(windowEnd - c.lastInstr) *
                    (c.detailed ? core.baseCpi : lightCpi));
        c.lastInstr = windowEnd;
    }
    c.done = true;
    c.doneCycle = t;
    if (allDetailedDone())
        stop = true;
}

void
PhaseSim::pace()
{
    // Regulate light-core injection with the detailed socket's
    // measured IPC over the last interval (§IV-B).
    std::uint64_t instr = 0;
    int n = 0;
    for (const CoreState &c : cores) {
        if (!c.detailed)
            continue;
        instr += std::min(c.lastInstr, windowEnd) - windowStart;
        ++n;
    }
    Cycles now = q.now();
    if (instr > lastPaceInstr && now > lastPaceCycle) {
        double cpi =
            static_cast<double>((now - lastPaceCycle).value()) * n /
            static_cast<double>(instr - lastPaceInstr);
        lightCpi = std::clamp(cpi, core.baseCpi, 500.0);
        lastPaceInstr = instr;
        lastPaceCycle = now;
    }
    // One sampling point feeds both telemetry channels (DESIGN.md
    // §14): the deterministic series, and the trace counters that
    // re-emit from it.
    if (sampling)
        sampleEpoch(tracing);
    if (!stop)
        q.schedule(now + pacerPeriod,
                   StepEvent{.kind = EventKind::Pace});
}

// lint: cold-path pacer-epoch telemetry; only invoked when a trace
// session or time-series sink is enabled (see pace() gates)
void
PhaseSim::sampleEpoch(bool emit_trace)
{
    // Per-pacer-epoch samples on the simulated timeline. Busy
    // cycles are cumulative, so each epoch's utilization is the
    // delta over the epoch. Samples land in the deterministic
    // series first; the pid-2 counter events (one tid per phase,
    // ts = simulated time in us) then re-emit the series' last
    // values, so the trace file and the deterministic export share
    // one source by construction.
    Cycles now = q.now();
    if (now <= lastTraceCycle)
        return;
    double dt =
        static_cast<double>((now - lastTraceCycle).value());
    using topology::Dir;
    std::array<std::uint64_t, 3> busy{};
    std::array<int, 3> cnt{};
    for (const auto &link : topo.links()) {
        int k = static_cast<int>(link.type());
        for (Dir d : {Dir::Forward, Dir::Backward}) {
            busy[k] += link.busyCycles(d).value();
            ++cnt[k];
        }
    }
    std::uint64_t t = now.value();
    for (int k = 0; k < 3; ++k) {
        if (linkStream[k] == noStream)
            continue;
        series.sample(linkStream[k], t,
                      static_cast<double>(busy[k] - lastLinkBusy[k]) /
                          (dt * cnt[k]));
        lastLinkBusy[k] = busy[k];
    }
    std::uint64_t req = 0;
    for (const auto &mc : mcs)
        req += mc.requests();
    series.sample(dramStream, t,
                  static_cast<double>(req - lastDramRequests));
    lastDramRequests = req;
    lastTraceCycle = now;

    if (!emit_trace)
        return;
    obs::TraceSession &tr = obs::TraceSession::global();
    std::string tag = "phase" + std::to_string(phase_);
    double ts_us = cyclesToNs(now) / 1000.0;
    obs::TraceArgs util;
    for (int k = 0; k < 3; ++k) {
        if (linkStream[k] == noStream)
            continue;
        util.add(linkTypeNames[k], series.lastValue(linkStream[k]));
    }
    tr.counterEvent(tag + ".linkUtil", ts_us, obs::tracePidSim,
                    phase_, util.str());
    obs::TraceArgs dram;
    dram.add("requests", series.lastValue(dramStream));
    tr.counterEvent(tag + ".dram", ts_us, obs::tracePidSim, phase_,
                    dram.str());
}

bool
PhaseSim::allDetailedDone() const
{
    for (const CoreState &c : cores)
        if (c.detailed && !c.done)
            return false;
    return true;
}

// lint: hot-path the step-C event loop
STARNUMA_AUDITED_SYMBOL void
PhaseSim::run()
{
    for (CoreState &c : cores) {
        if (c.idx >= c.end) {
            if (c.detailed)
                finishCore(c); // pure-compute window
            else
                c.done = true;
            continue;
        }
        const trace::MemRecord &r = trace.perThread[c.thread][c.idx];
        double cpi = c.detailed ? core.baseCpi : lightCpi;
        c.readyTime = Cycles(
            static_cast<double>(r.instr - windowStart) * cpi);
        scheduleIssue(c, c.readyTime);
    }
    q.schedule(q.now() + Cycles(2000),
               StepEvent{.kind = EventKind::Pace});

    stop = allDetailedDone();
    // Hard ceiling to bound runaway phases.
    Cycles limit(static_cast<double>(scale.detailInstructions()) *
                 2000.0);
    StepEvent ev;
    while (!stop && q.now() < limit && q.pop(ev))
        dispatch(ev);

    for (CoreState &c : cores) {
        if (!c.detailed)
            continue;
        if (!c.done)
            finishCore(c);
        Cycles start = c.warmupCrossed ? c.warmupCycle : Cycles();
        std::uint64_t instr0 =
            c.warmupCrossed ? warmupInstr : windowStart;
        statInstructions += windowEnd - instr0;
        statCycles +=
            c.doneCycle > start ? c.doneCycle - start : Cycles(1);
    }
    statCoherence0 = directory.transactions() - statCoherence0;
    endCycle = q.now();
}

void
PhaseSim::accumulate(RunMetrics &m) const
{
    m.instructions += statInstructions;
    m.cycles += statCycles;
    m.llcHits += statLlcHits;
    std::uint64_t misses = 0;
    for (int i = 0; i < accessTypes; ++i)
        misses += statMix[i];
    double prev_sum =
        m.amatCycles * static_cast<double>(m.memAccesses);
    m.memAccesses += misses;
    m.amatCycles =
        m.memAccesses ? (prev_sum + statLatency.sum()) /
                            static_cast<double>(m.memAccesses)
                      : 0.0;
    for (int i = 0; i < accessTypes; ++i)
        m.mix[i] += static_cast<double>(statMix[i]); // raw counts
    m.coherenceTransactions += statCoherence0;
    m.blockTransfers +=
        statMix[static_cast<int>(AccessType::BtSocket)] +
        statMix[static_cast<int>(AccessType::BtPool)];
    m.shootdownPages += statShootdownPages;
    m.detailedMisses += statDetailedMisses;
    for (int i = 0; i < accessTypes; ++i)
        m.typeLatency[i] += statTypeLatency[i].sum(); // raw sums
    m.migrationStallCycles += statMigStall.sum();
}

// lint: cold-path stats export, once per run when observing
void
PhaseSim::registerStats(obs::Registry &r) const
{
    r.addCounter("instructions", &statInstructions);
    r.addCounterFn("cycles",
                   [this] { return statCycles.value(); });
    r.addCounter("llcHits", &statLlcHits);
    r.addCounter("detailedMisses", &statDetailedMisses);
    r.addCounter("shootdownPages", &statShootdownPages);
    r.addCounter("coherenceTransactions", &statCoherence0);
    r.addCounterFn("horizonCycles",
                   [this] { return endCycle.value(); });
    r.addCounterFn("events", [this] { return q.executed(); });
    r.addCounterFn("peakQueueDepth", [this] {
        return static_cast<std::uint64_t>(q.peakPending());
    });
    r.addMean("latencyCycles", &statLatency);
    r.addMean("migrationStallCycles", &statMigStall);
    for (int i = 0; i < accessTypes; ++i) {
        std::string t =
            accessTypeName(static_cast<AccessType>(i));
        r.addCounter("mix." + t, &statMix[i]);
        r.addMean("typeLatencyCycles." + t, &statTypeLatency[i]);
    }
}

} // anonymous namespace

TimingSim::TimingSim(const SystemSetup &system_setup,
                     const SimScale &sim_scale,
                     TimingOptions timing_options)
    : setup(system_setup), scale(sim_scale),
      options(timing_options)
{
}

RunMetrics
TimingSim::run(const trace::WorkloadTrace &trace,
               const TraceSimResult &placement)
{
    RunMetrics m;
    stats_ = obs::Snapshot();
    timeseries_ = obs::TimeSeries();
    Cycles total_horizon;
    std::unique_ptr<MachineState> shared_machine;
    std::unique_ptr<MachineState> last_machine;
    const PageRange page_span = trace::pageSpan(trace);

    if (options.independentPhases) {
        // §IV-A3 literally: N independent timing simulations, one
        // per phase, fanned out over the fixed-size worker pool.
        // Each phase owns its machine state and event queue, and the
        // accumulation below walks the phases in canonical order, so
        // the merged metrics are bitwise-identical for any pool size.
        std::vector<std::unique_ptr<MachineState>> machines;
        std::vector<std::unique_ptr<PhaseSim>> sims;
        for (int phase = 0; phase < scale.phases; ++phase) {
            machines.push_back(std::make_unique<MachineState>(
                setup, scale, core, page_span,
                placement.replication.replicated));
            sims.push_back(std::make_unique<PhaseSim>(
                setup, scale, options, core, trace,
                placement.checkpoints[phase], phase,
                *machines.back()));
        }
        ThreadPool::global().parallelFor(
            sims.size(), [&sims](std::size_t i) {
                obs::TraceSpan span(
                    "phase " + std::to_string(i), "timing",
                    obs::TraceArgs()
                        .add("phase", static_cast<int>(i))
                        .str());
                sims[i]->run();
            });
        // Phase order is canonical here, so the merged snapshot and
        // series are identical for any pool size.
        const bool collect = obs::StatsSink::global().enabled();
        const bool collect_ts =
            obs::TimeSeriesSink::global().enabled();
        for (std::size_t i = 0; i < sims.size(); ++i) {
            sims[i]->accumulate(m);
            total_horizon += sims[i]->horizon();
            if (collect) {
                obs::Registry reg;
                sims[i]->registerStats(reg);
                stats_.merge(phasePrefix(static_cast<int>(i)),
                             reg.snapshot());
            }
            if (collect_ts)
                timeseries_.merge(phasePrefix(static_cast<int>(i)),
                                  sims[i]->timeseries());
        }
        last_machine = std::move(machines.back());
    } else {
        shared_machine = std::make_unique<MachineState>(
            setup, scale, core, page_span,
            placement.replication.replicated);
        const bool collect = obs::StatsSink::global().enabled();
        const bool collect_ts =
            obs::TimeSeriesSink::global().enabled();
        for (int phase = 0; phase < scale.phases; ++phase) {
            PhaseSim sim(setup, scale, options, core, trace,
                         placement.checkpoints[phase], phase,
                         *shared_machine);
            {
                obs::TraceSpan span(
                    "phase " + std::to_string(phase), "timing",
                    obs::TraceArgs().add("phase", phase).str());
                sim.run();
            }
            sim.accumulate(m);
            total_horizon += sim.horizon();
            if (collect) {
                obs::Registry reg;
                sim.registerStats(reg);
                stats_.merge(phasePrefix(phase), reg.snapshot());
            }
            if (collect_ts)
                timeseries_.merge(phasePrefix(phase),
                                  sim.timeseries());
        }
    }
    MachineState &machine =
        options.independentPhases ? *last_machine
                                  : *shared_machine;

    // Component-level stats of the surviving machine (independent
    // phases: the last phase's machine; sequential: cumulative).
    if (obs::StatsSink::global().enabled()) {
        obs::Registry reg;
        machine.registerStats(reg);
        stats_.merge("machine.", reg.snapshot());
    }

    // Interconnect diagnostics (final phase's occupancy over the
    // mean phase horizon).
    {
        using topology::Dir;
        using topology::LinkType;
        double uti[3] = {0, 0, 0};
        int cnt[3] = {0, 0, 0};
        double max_util = 0;
        stats::Mean queue;
        Cycles horizon = total_horizon != Cycles()
                             ? total_horizon / scale.phases
                             : Cycles(1);
        for (const auto &link : machine.topo.links()) {
            for (Dir d : {Dir::Forward, Dir::Backward}) {
                double u = link.utilization(d, horizon);
                int k = static_cast<int>(link.type());
                uti[k] += u;
                ++cnt[k];
                max_util = std::max(max_util, u);
                queue.sample(link.meanQueueDelay(d));
            }
        }
        if (cnt[0])
            m.upiUtilization = uti[0] / cnt[0];
        if (cnt[1])
            m.numalinkUtilization = uti[1] / cnt[1];
        if (cnt[2])
            m.cxlUtilization = uti[2] / cnt[2];
        m.maxLinkUtilization = max_util;
        m.meanLinkQueueNs = cyclesToNs(queue.mean());
        double dq = 0;
        std::uint64_t dn = 0;
        for (const auto &mc : machine.mcs) {
            dq += mc.meanQueueDelay() *
                  static_cast<double>(mc.requests());
            dn += mc.requests();
        }
        m.meanDramQueueNs =
            dn ? cyclesToNs(dq / static_cast<double>(dn)) : 0;
    }

    m.ipc = m.cycles != Cycles()
                ? static_cast<double>(m.instructions) /
                      static_cast<double>(m.cycles.value())
                : 0.0;
    std::uint64_t misses = m.memAccesses;
    if (misses) {
        double unloaded = 0;
        for (int i = 0; i < accessTypes; ++i) {
            double count = m.mix[i];
            double frac = count / static_cast<double>(misses);
            m.mix[i] = frac;
            m.typeLatency[i] = count ? m.typeLatency[i] / count : 0;
            unloaded +=
                frac * static_cast<double>(
                           nsToCycles(unloadedLatencyNs(
                                          static_cast<AccessType>(i)))
                               .value());
        }
        m.unloadedAmatCycles = unloaded;
        m.migrationStallCycles /= static_cast<double>(misses);
    }
    // Per-core LLC MPKI measured on the detailed socket (Table III).
    m.llcMpki =
        m.instructions
            ? 1000.0 * static_cast<double>(m.detailedMisses) /
                  static_cast<double>(m.instructions)
            : 0.0;
    m.migratedPages = placement.migratedPagesTotal;
    m.poolMigrationFraction = placement.poolMigrationFraction;
    return m;
}

} // namespace driver
} // namespace starnuma
