/**
 * @file
 * Selective page replication — the alternative to pooling §V-F
 * analyzes. Read-only pages shared by many sockets are replicated
 * into every sharer's local memory, making their accesses local at
 * the cost of memory capacity (and, for any page that later turns
 * out to be written, an invalidation of every replica).
 *
 * This is deliberately the technique's *best case*: replication
 * candidates are chosen with a-priori knowledge of the whole run's
 * read/write behaviour and replica maintenance is free. The paper's
 * argument is that even this ideal form loses to pooling when
 * shared pages are read-write (BFS) or when the read-only shared
 * set is a large fraction of memory (TC).
 */

#ifndef STARNUMA_CORE_REPLICATION_HH
#define STARNUMA_CORE_REPLICATION_HH

#include <algorithm>
#include <cstdint>
#include <vector>

// lint: layer-exception — idealized replication (§V-F) is an
// *offline* analysis over a whole captured run: candidate selection
// needs the complete WorkloadTrace (per-page sharers and the
// written-page set), so core's replication planner legitimately
// consumes trace's container type. Mirrored in src/CMakeLists.txt
// (starnuma_core links starnuma_trace).
#include "trace/trace.hh"

namespace starnuma
{
namespace core
{

/** Configuration of the idealized replication policy. */
struct ReplicationConfig
{
    /** Replicate pages shared by at least this many sockets. */
    int sharerThreshold = 8;

    /**
     * Capacity budget: replica bytes may not exceed this multiple
     * of the workload footprint (replicas at every sharer are
     * expensive; unlimited replication is unrealistic).
     */
    double capacityBudget = 2.0;
};

/** Outcome of replication candidate selection. */
struct ReplicationPlan
{
    /**
     * Pages replicated at every sharer (accesses become local), in
     * ascending order.
     */
    std::vector<PageNum> replicated;

    /** Replica bytes divided by footprint bytes. */
    double capacityOverhead = 0.0;

    /** Pages that qualified by sharing but were written (skipped). */
    std::uint64_t rejectedReadWrite = 0;

    /** Pages skipped because the capacity budget ran out. */
    std::uint64_t rejectedCapacity = 0;

    bool
    isReplicated(PageNum page) const
    {
        return std::binary_search(replicated.begin(),
                                  replicated.end(), page);
    }
};

/**
 * Select replication candidates from a whole-run trace: read-only
 * pages with at least @p config.sharerThreshold sharers, most
 * shared first, until the capacity budget is exhausted.
 */
ReplicationPlan planReplication(const trace::WorkloadTrace &trace,
                                int cores_per_socket, int sockets,
                                const ReplicationConfig &config);

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_REPLICATION_HH
