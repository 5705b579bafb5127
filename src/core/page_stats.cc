#include "core/page_stats.hh"

#include "sim/annotations.hh"
#include "sim/logging.hh"

namespace starnuma
{
namespace core
{

namespace
{

/** Counter blocks per arena chunk (chunks chain on exhaustion). */
constexpr std::size_t blocksPerArena = 64 * 1024;

} // anonymous namespace

PageAccessStats::PageAccessStats(int sockets) : sockets_(sockets)
{
    sn_assert(sockets > 0, "need at least one socket");
}

// lint: cold-path arena chaining amortized over ~64k blocks; the
// bump allocation itself is the hot case and allocates nothing.
STARNUMA_COLD_PATH std::uint32_t *
PageAccessStats::newBlock()
{
    std::size_t bytes = sizeof(std::uint32_t) *
                        static_cast<std::size_t>(sockets_);
    if (!arenas.empty()) {
        auto *p =
            arenas.back().allocArray<std::uint32_t>(sockets_);
        if (p)
            return p;
    }
    // Exhausted (or first use): chain a fresh fixed-size arena.
    arenas.emplace_back(blocksPerArena * bytes);
    auto *p = arenas.back().allocArray<std::uint32_t>(sockets_);
    sn_assert(p != nullptr, "fresh arena must fit one block");
    return p;
}

// lint: cold-path sparse FlatMap mode; replay preallocates the flat
// table for dense captured traces
STARNUMA_COLD_PATH std::uint32_t *
PageAccessStats::sparseBlock(PageNum page)
{
    auto [it, inserted] = pageCounts.try_emplace(page, nullptr);
    if (inserted)
        it->second = newBlock();
    return it->second;
}

// lint: cold-path one-time setup before the replay loop
void
PageAccessStats::preallocate(PageNum base, std::size_t pages)
{
    sn_assert(pageCounts.empty() && flat.empty(),
              "preallocate before recording any access");
    if (pages == 0)
        return;
    flatBase = base;
    flat.assign(pages, nullptr);
    order.reserve(pages);
}

void
PageAccessStats::reset()
{
    pageCounts.clear();
    for (PageNum page : order)
        flat[page.value() - flatBase.value()] = nullptr;
    order.clear();
    for (Arena &a : arenas)
        a.reset();
}

const std::uint32_t *
PageAccessStats::findBlock(PageNum page) const
{
    if (flat.empty()) {
        auto it = pageCounts.find(page);
        return it == pageCounts.end() ? nullptr : it->second;
    }
    std::uint64_t slot = page.value() - flatBase.value();
    return slot < flat.size() ? flat[slot] : nullptr;
}

std::uint64_t
PageAccessStats::totalAccesses(PageNum page) const
{
    const std::uint32_t *block = findBlock(page);
    if (!block)
        return 0;
    std::uint64_t total = 0;
    for (int s = 0; s < sockets_; ++s)
        total += block[s];
    return total;
}

int
PageAccessStats::sharers(PageNum page) const
{
    const std::uint32_t *block = findBlock(page);
    if (!block)
        return 0;
    int n = 0;
    for (int s = 0; s < sockets_; ++s)
        n += (block[s] > 0);
    return n;
}

NodeId
PageAccessStats::majoritySocket(PageNum page) const
{
    const std::uint32_t *block = findBlock(page);
    if (!block)
        return -1;
    NodeId best = 0;
    for (int s = 1; s < sockets_; ++s)
        if (block[s] > block[best])
            best = s;
    return block[best] > 0 ? best : -1;
}

} // namespace core
} // namespace starnuma
