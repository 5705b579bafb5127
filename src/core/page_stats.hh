/**
 * @file
 * Per-page, per-socket access counting. This is the "zero-cost
 * per-socket knowledge of all accesses to every 4KB page" the paper
 * grants the baseline's migration policy (§IV-C), and the input to
 * the oracular static placement of §V-B. It is deliberately *not*
 * hardware-feasible — that is the point of the comparison with
 * StarNUMA's region-granular T_i trackers.
 *
 * This sits on the baseline's per-record hot path, so the counters
 * are one dense row-major (pages x sockets) uint32_t table over the
 * page range given at construction: a record is one bounds check
 * and one add. A side vector keeps first-access order, which drives
 * deterministic iteration and lets reset() zero only touched rows.
 */

#ifndef STARNUMA_CORE_PAGE_STATS_HH
#define STARNUMA_CORE_PAGE_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace starnuma
{
namespace core
{

/** Exact per-socket access counts for every touched page. */
class PageAccessStats
{
  public:
    /**
     * @param sockets sockets counted per page.
     * @param range pages the table covers.
     */
    PageAccessStats(int sockets, PageRange range);

    /**
     * Count @p count accesses to page @p page by @p socket (panics
     * when the page is outside the table or the socket unknown: a
     * bad socket would land in a neighbouring page's row).
     */
    // lint: hot-path one count per replayed record batch (baseline)
    STARNUMA_AUDITED_SYMBOL void
    record(PageNum page, NodeId socket, std::uint32_t count = 1)
    {
        sn_assert(socket >= 0 && socket < sockets_,
                  "record from unknown socket %d", socket);
        std::uint64_t slot = range_.slot(page);
        sn_assert(slot < touched.size(),
                  "page %llu outside the access-stats range",
                  static_cast<unsigned long long>(page.value()));
        if (!touched[slot]) {
            touched[slot] = 1;
            noteFirstAccess(page);
        }
        counts[slot * static_cast<std::uint64_t>(sockets_) +
               static_cast<std::uint64_t>(socket)] += count;
    }

    /** Total accesses to @p page across sockets (0 if untouched or
     *  outside the table). */
    std::uint64_t totalAccesses(PageNum page) const;

    /** Number of distinct sockets that accessed @p page. */
    int sharers(PageNum page) const;

    /** Socket with the most accesses to @p page (-1 if untouched). */
    NodeId majoritySocket(PageNum page) const;

    /** Pages with at least one access. */
    std::size_t touchedPages() const { return order.size(); }

    int sockets() const { return sockets_; }

    /**
     * Visit (page, per-socket counts) for every touched page, in
     * first-access order; @p counts points at sockets() entries.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (PageNum page : order)
            fn(page, row(range_.slot(page)));
    }

    /** Drop all counts (zeroes only the touched rows). */
    void reset();

  private:
    /**
     * Out-of-line first-access append: keeps the vector's
     * reallocation machinery (and its operator new call) out of the
     * record() hot symbol, which scripts/check_hotpath_syms.sh
     * verifies at the binary level. Capacity for the whole range is
     * reserved at construction, so the push never reallocates.
     */
    // lint: cold-path capacity reserved in the constructor
    STARNUMA_COLD_PATH void
    noteFirstAccess(PageNum page)
    {
        order.push_back(page);
    }

    /** Counter row of table slot @p slot (sockets_ entries). */
    const std::uint32_t *
    row(std::uint64_t slot) const
    {
        return counts.data() +
               slot * static_cast<std::uint64_t>(sockets_);
    }

    /** Counter row of @p page (all zero if untouched), or null
     *  outside the table. */
    const std::uint32_t *findRow(PageNum page) const;

    int sockets_;
    PageRange range_;
    std::vector<std::uint32_t> counts; // pages x sockets, row-major
    std::vector<std::uint8_t> touched; // per page: row in use
    std::vector<PageNum> order;        // first-access order
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_PAGE_STATS_HH
