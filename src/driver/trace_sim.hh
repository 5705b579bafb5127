/**
 * @file
 * Step B of the methodology (§IV-A2): replay the captured memory
 * traces (no timing), drive the page-placement machinery — first
 * touch, the T_i tracker + TLB annexes + Algorithm 1 for StarNUMA,
 * the zero-cost perfect-knowledge page policy for the baseline, or
 * the §V-B static oracle — and emit one checkpoint per phase: the
 * page-to-node map at the phase's start plus the migrations to be
 * modeled during that phase by the timing simulation (step C).
 */

#ifndef STARNUMA_DRIVER_TRACE_SIM_HH
#define STARNUMA_DRIVER_TRACE_SIM_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/migration.hh"
#include "core/perfect_policy.hh"
#include "core/replication.hh"
#include "driver/system_setup.hh"
#include "sim/bytes.hh"
#include "sim/obs/audit.hh"
#include "sim/obs/registry.hh"
#include "sim/obs/timeseries.hh"
#include "sim/scale.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace driver
{

/** (page, home node) pairs in ascending page order. */
using PageHomes = std::vector<std::pair<PageNum, NodeId>>;

/** Inputs of one phase's timing simulation. */
struct Checkpoint
{
    /** Page homes at the start of the phase. */
    PageHomes pageHome;

    /** Region migrations occurring during this phase (StarNUMA). */
    std::vector<core::RegionMigration> regionMigrations;

    /** Page migrations occurring during this phase (baseline). */
    std::vector<core::PageMigration> pageMigrations;

    /** Pages moved by this phase's migrations. */
    std::uint64_t migratedPages(int pages_per_region) const;
};

/** Output of step B. */
struct TraceSimResult
{
    std::vector<Checkpoint> checkpoints;
    std::uint64_t poolCapacityPages = 0;
    std::uint64_t footprintPages = 0;

    // Migration statistics (Table IV).
    std::uint64_t migratedRegions = 0;
    std::uint64_t migratedPagesTotal = 0;
    double poolMigrationFraction = 0.0;
    std::uint64_t victimEvictions = 0;
    std::uint64_t pingPongSuppressed = 0;

    /** Pages resident in the pool at the end of the run. */
    std::uint64_t pagesInPool = 0;

    /** §V-F replication plan (empty unless enabled in the setup). */
    core::ReplicationPlan replication;

    // DiDi shared-TLB-directory statistics (§III-D3): targeted
    // shootdown messages sent vs per-core IPIs avoided.
    std::uint64_t tlbShootdownsSent = 0;
    std::uint64_t tlbShootdownsSaved = 0;

    /**
     * Migration-engine / TLB-directory registry snapshot, taken at
     * the end of the run while the obs::StatsSink is enabled; empty
     * otherwise. Not serialized by serialize().
     */
    obs::Snapshot stats;

    /**
     * Per-phase replay telemetry (DESIGN.md §14), sampled once per
     * migration phase with the phase number as timestamp: pool
     * occupancy, TLB miss count and rate, pages migrated, targeted
     * shootdown messages. Populated only while the
     * obs::TimeSeriesSink is enabled; empty otherwise. Not
     * serialized by serialize().
     */
    obs::TimeSeries timeseries;

    /**
     * The migration engine's structured Algorithm-1 decision log
     * (DESIGN.md §14). Populated only while the obs::AuditSink is
     * enabled; empty otherwise. Not serialized by serialize().
     */
    obs::AuditLog audit;

    /**
     * Serialize the checkpoints (step B's output artifact, §IV-A2)
     * so timing simulations can run later or elsewhere, e.g. from
     * the content-addressed artifact store (DESIGN.md §16). Format
     * v2: varint/delta coded (sim/bytes.hh primitives). Page lists
     * are held sorted by page, so they are written in page order
     * and artifacts are byte-identical across runs.
     */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Decode a serialize() image from @p r, leaving the reader
     * positioned after it (embeddable in larger records).
     * @return false on malformed input, including a checkpoint
     *         whose pages do not strictly increase.
     */
    bool deserialize(ByteReader &r);
};

// Never defined: keeps TraceSim::run's symbol, which perfbench wraps.
struct PhaseStateHooks;

/** The memory-trace simulator. */
class TraceSim
{
  public:
    TraceSim(const SystemSetup &system_setup,
             const SimScale &sim_scale);

    /** Run all phases over @p trace. The second parameter is unused. */
    TraceSimResult run(const trace::WorkloadTrace &trace,
                       const PhaseStateHooks * = nullptr);

  private:
    TraceSimResult runDynamic(const trace::WorkloadTrace &trace);
    TraceSimResult runStaticOracle(const trace::WorkloadTrace &trace);

    NodeId socketOf(ThreadId t) const;

    const SystemSetup &setup;
    SimScale scale;
};

} // namespace driver
} // namespace starnuma

#endif // STARNUMA_DRIVER_TRACE_SIM_HH
