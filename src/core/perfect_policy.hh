/**
 * @file
 * The baseline system's migration policy (§IV-C): the paper favors
 * the baseline by granting it zero-cost, per-socket knowledge of
 * every access to every 4 KB page in each migration phase. Each
 * phase, the hottest pages move to their majority-accessor socket
 * (the migration cost itself is still modeled, like StarNUMA's).
 */

#ifndef STARNUMA_CORE_PERFECT_POLICY_HH
#define STARNUMA_CORE_PERFECT_POLICY_HH

#include <cstdint>
#include <vector>

#include "core/page_stats.hh"
#include "mem/page_map.hh"
#include "sim/types.hh"

namespace starnuma
{
namespace core
{

/** One page-granular migration decision. */
struct PageMigration
{
    PageNum page;
    NodeId from;
    NodeId to;
};

/** Zero-cost perfect-knowledge page migration for the baseline. */
class PerfectPagePolicy
{
  public:
    /**
     * @param range pages whose accesses are counted.
     * @param migration_limit_pages per-phase page budget (matches
     *        the StarNUMA configuration it is compared against).
     * @param min_accesses ignore pages colder than this.
     */
    PerfectPagePolicy(int sockets, PageRange range,
                      std::uint32_t migration_limit_pages,
                      std::uint32_t min_accesses = 4);

    /** Zero-cost access knowledge feed (@p count accesses). */
    // lint: hot-path one count per replayed record batch (baseline)
    void
    recordAccess(PageNum page, NodeId socket,
                 std::uint32_t count = 1)
    {
        stats.record(page, socket, count);
    }

    /**
     * End-of-phase decision: move the hottest mis-placed pages to
     * their majority socket, hottest first, up to the limit.
     * Applies the moves to @p pages and resets the phase's stats.
     */
    std::vector<PageMigration> decidePhase(mem::PageMap &pages);

    std::uint64_t migratedPages() const { return migrated_; }

  private:
    PageAccessStats stats;
    std::uint32_t limit;
    std::uint32_t minAccesses;
    std::uint64_t migrated_;
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_PERFECT_POLICY_HH
