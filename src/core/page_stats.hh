/**
 * @file
 * Per-page, per-socket access counting. This is the "zero-cost
 * per-socket knowledge of all accesses to every 4KB page" the paper
 * grants the baseline's migration policy (§IV-C), and the input to
 * the oracular static placement of §V-B. It is deliberately *not*
 * hardware-feasible — that is the point of the comparison with
 * StarNUMA's region-granular T_i trackers.
 *
 * This sits on the baseline's per-record hot path, so the counter
 * blocks live in arena-backed flat storage: one FlatMap probe finds
 * the page's block, and the per-socket counters are a contiguous
 * uint32_t array bump-allocated from a chained arena (one malloc'd
 * vector per page would dominate the replay profile).
 */

#ifndef STARNUMA_CORE_PAGE_STATS_HH
#define STARNUMA_CORE_PAGE_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/arena.hh"
#include "sim/flat_map.hh"
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
    explicit PageAccessStats(int sockets);

    /**
     * Switch to flat-table storage over page numbers
     * [base, base + pages). Must be called while no access is
     * recorded; every page recorded afterwards must fall in the
     * range. Iteration order (first-access order) is unchanged.
     */
    void preallocate(PageNum base, std::size_t pages);

    /** Count @p count accesses to page @p page by @p socket. */
    // lint: hot-path one count per replayed record batch (baseline)
    STARNUMA_AUDITED_SYMBOL void
    record(PageNum page, NodeId socket, std::uint32_t count = 1)
    {
        std::uint32_t *block;
        if (flat.empty()) {
            block = sparseBlock(page);
        } else {
            std::uint32_t *&slot = flat[flatSlot(page)];
            if (!slot) {
                slot = newBlock();
                noteFirstAccess(page);
            }
            block = slot;
        }
        block[socket] += count;
    }

    /** Total accesses to @p page across sockets. */
    std::uint64_t totalAccesses(PageNum page) const;

    /** Number of distinct sockets that accessed @p page. */
    int sharers(PageNum page) const;

    /** Socket with the most accesses to @p page (-1 if untouched). */
    NodeId majoritySocket(PageNum page) const;

    /** Pages with at least one access. */
    std::size_t
    touchedPages() const
    {
        return flat.empty() ? pageCounts.size() : order.size();
    }

    int sockets() const { return sockets_; }

    /**
     * Visit (page, per-socket counts) for every touched page, in
     * first-access order; @p counts points at sockets() entries.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (flat.empty()) {
            for (const auto &[page, counts] : pageCounts)
                fn(page,
                   static_cast<const std::uint32_t *>(counts));
        } else {
            for (PageNum page : order)
                fn(page, static_cast<const std::uint32_t *>(
                             flat[page.value() -
                                  flatBase.value()]));
        }
    }

    /** Drop all counts; arena storage is reused for the next phase. */
    void reset();

  private:
    /** A zeroed sockets_-wide counter block from the arena chain. */
    std::uint32_t *newBlock();

    /**
     * Sparse-mode lookup-or-insert, out of line so the FlatMap's
     * growth path (and its operator new call) stays out of the
     * record() hot symbol.
     */
    STARNUMA_COLD_PATH std::uint32_t *sparseBlock(PageNum page);

    /**
     * Out-of-line first-access append: keeps the vector's
     * reallocation machinery (and its operator new call) out of the
     * record() hot symbol, which scripts/check_hotpath_syms.sh
     * verifies at the binary level. Capacity is reserved in
     * preallocate(), so the push never actually reallocates.
     */
    // lint: cold-path capacity reserved in preallocate()
    STARNUMA_COLD_PATH void
    noteFirstAccess(PageNum page)
    {
        order.push_back(page);
    }

    /** Block of @p page in either mode (null if untouched). */
    const std::uint32_t *findBlock(PageNum page) const;

    /** Flat-mode slot of @p page (panics when out of range). */
    std::size_t
    flatSlot(PageNum page) const
    {
        std::uint64_t slot = page.value() - flatBase.value();
        sn_assert(slot < flat.size(),
                  "page outside the preallocated range");
        return static_cast<std::size_t>(slot);
    }

    int sockets_;
    FlatMap<PageNum, std::uint32_t *> pageCounts;
    std::vector<std::uint32_t *> flat; // flat mode: block per slot
    std::vector<PageNum> order;        // flat mode: access order
    PageNum flatBase{0};
    std::vector<Arena> arenas;
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_PAGE_STATS_HH
