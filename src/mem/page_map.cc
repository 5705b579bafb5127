#include "mem/page_map.hh"

#include "sim/logging.hh"

namespace starnuma
{
namespace mem
{

// lint: cold-path one-time setup before the replay loop
PageMap::PageMap(int nodes, PageRange range)
    : range_(range), homes(range.pages, invalidNode),
      counts(nodes, 0), firstTouch(0)
{
    sn_assert(nodes > 0, "page map needs at least one node");
    order.reserve(range.pages);
}

void
PageMap::setHome(PageNum page, NodeId node)
{
    sn_assert(node >= 0 &&
                  static_cast<std::size_t>(node) < counts.size(),
              "migrating page to unknown node %d", node);
    NodeId &h = homes[slotOf(page)];
    if (h == invalidNode)
        order.push_back(page);
    else
        --counts[h];
    h = node;
    ++counts[node];
}

std::uint64_t
PageMap::pagesAt(NodeId node) const
{
    sn_assert(node >= 0 &&
                  static_cast<std::size_t>(node) < counts.size(),
              "pagesAt of unknown node %d", node);
    return counts[node];
}

} // namespace mem
} // namespace starnuma
