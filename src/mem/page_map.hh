/**
 * @file
 * Page-to-home-node mapping with first-touch initial placement
 * (§IV-C) and migration support. Pages are keyed by page number.
 * The map also tracks per-node page counts so capacity policies
 * (pool limit, victim selection) can query occupancy cheaply.
 *
 * Storage is a flat page table over the page range given at
 * construction — a plain array indexed by (page - base), since
 * traces captured against the simulator's bump allocator cover one
 * contiguous range (trace::pageSpan). Mapping a page outside the
 * range panics; looking one up reads as unmapped.
 */

#ifndef STARNUMA_MEM_PAGE_MAP_HH
#define STARNUMA_MEM_PAGE_MAP_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace starnuma
{
namespace mem
{

/** Home node returned for pages that were never touched. */
constexpr NodeId invalidNode = -1;

/** Page table mapping page numbers to home nodes. */
class PageMap
{
  public:
    /**
     * @param nodes addressable home nodes (sockets + pool).
     * @param range pages the map can hold.
     */
    PageMap(int nodes, PageRange range);

    /** Home of page @p page, or invalidNode if unmapped. */
    // lint: hot-path one lookup per modeled access
    NodeId
    home(PageNum page) const
    {
        std::uint64_t slot = range_.slot(page);
        return slot < homes.size() ? homes[slot] : invalidNode;
    }

    /**
     * First-touch lookup: maps the page to @p toucher's socket on
     * first access, then sticks.
     * @return the (possibly just-assigned) home node.
     */
    // lint: hot-path one touch per replayed record batch
    NodeId
    touch(PageNum page, NodeId toucher)
    {
        NodeId &h = homes[slotOf(page)];
        if (h == invalidNode) {
            sn_assert(toucher >= 0 && static_cast<std::size_t>(
                                          toucher) < counts.size(),
                      "first-touch by unknown node %d", toucher);
            h = toucher;
            ++counts[toucher];
            ++firstTouch;
        }
        return h;
    }

    /** Force page @p page to live on node @p node (migration). */
    void setHome(PageNum page, NodeId node);

    /** Number of mapped pages homed at @p node. */
    std::uint64_t pagesAt(NodeId node) const;

    /** Total mapped pages. */
    std::uint64_t totalPages() const;

    /** Pages whose initial placement came from first touch. */
    std::uint64_t firstTouchPages() const { return firstTouch; }

  private:
    /** Table slot of @p page (panics when out of range). */
    std::uint64_t
    slotOf(PageNum page) const
    {
        std::uint64_t slot = range_.slot(page);
        sn_assert(slot < homes.size(),
                  "page %llu outside the page map's range",
                  static_cast<unsigned long long>(page.value()));
        return slot;
    }

    PageRange range_;
    std::vector<NodeId> homes; // home per slot, invalidNode if unmapped
    std::vector<std::uint64_t> counts;
    std::uint64_t firstTouch;
};

} // namespace mem
} // namespace starnuma

#endif // STARNUMA_MEM_PAGE_MAP_HH
