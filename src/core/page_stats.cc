#include "core/page_stats.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace starnuma
{
namespace core
{

// lint: cold-path one-time setup before the replay loop
PageAccessStats::PageAccessStats(int sockets, PageRange range)
    : sockets_(sockets), range_(range)
{
    sn_assert(sockets > 0, "need at least one socket");
    counts.assign(range.pages * static_cast<std::uint64_t>(sockets),
                  0);
    touched.assign(range.pages, 0);
    order.reserve(range.pages);
}

void
PageAccessStats::reset()
{
    for (PageNum page : order) {
        std::uint64_t slot = range_.slot(page);
        std::fill_n(&counts[slot * static_cast<std::uint64_t>(sockets_)],
                    sockets_, 0u);
        touched[slot] = 0;
    }
    order.clear();
}

const std::uint32_t *
PageAccessStats::findRow(PageNum page) const
{
    std::uint64_t slot = range_.slot(page);
    return slot < touched.size() ? row(slot) : nullptr;
}

std::uint64_t
PageAccessStats::totalAccesses(PageNum page) const
{
    const std::uint32_t *r = findRow(page);
    if (!r)
        return 0;
    std::uint64_t total = 0;
    for (int s = 0; s < sockets_; ++s)
        total += r[s];
    return total;
}

int
PageAccessStats::sharers(PageNum page) const
{
    const std::uint32_t *r = findRow(page);
    if (!r)
        return 0;
    int n = 0;
    for (int s = 0; s < sockets_; ++s)
        n += (r[s] > 0);
    return n;
}

NodeId
PageAccessStats::majoritySocket(PageNum page) const
{
    const std::uint32_t *r = findRow(page);
    if (!r)
        return -1;
    NodeId best = 0;
    for (int s = 1; s < sockets_; ++s)
        if (r[s] > r[best])
            best = s;
    return r[best] > 0 ? best : -1;
}

} // namespace core
} // namespace starnuma
