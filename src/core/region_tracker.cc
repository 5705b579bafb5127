#include "core/region_tracker.hh"

#include <bit>

#include "sim/logging.hh"

namespace starnuma
{
namespace core
{

const TrackerEntry RegionTracker::zeroEntry{};

int
TrackerEntry::sharerCount() const
{
    return std::popcount(sharerMask);
}

// lint: cold-path one-time setup before the replay loop
RegionTracker::RegionTracker(int counter_bits, int n_sockets,
                             Addr region_bytes, PageRange pages)
    : counterBits_(counter_bits), sockets(n_sockets),
      regionBytes_(region_bytes)
{
    sn_assert(counter_bits >= 0 && counter_bits <= 32,
              "tracker counter width %d out of range", counter_bits);
    sn_assert(sockets > 0 && sockets <= 64, "too many sockets");
    sn_assert(region_bytes >= pageBytes &&
                  region_bytes % pageBytes == 0,
              "region size must be a multiple of the page size");
    counterMax =
        counter_bits == 0
            ? 0
            : static_cast<std::uint32_t>((1ULL << counter_bits) - 1);
    if (pages.pages == 0)
        return;
    regionBase = regionOf(pageBase(pages.base));
    RegionId last =
        regionOf(pageBase(pages.base + PageNum(pages.pages - 1)));
    entries.assign(last - regionBase + 1, TrackerEntry{});
    touchedOrder.reserve(entries.size());
}

int
RegionTracker::pagesPerRegion() const
{
    return starnuma::pagesPerRegion(regionBytes_);
}

const TrackerEntry &
RegionTracker::entry(RegionId region) const
{
    std::uint64_t slot = region - regionBase;
    return slot < entries.size() ? entries[slot] : zeroEntry;
}

std::uint64_t
RegionTracker::entryBytes() const
{
    // Presence bits (one per socket) plus the i-bit counter,
    // rounded up to whole bytes.
    return (sockets + counterBits_ + 7) / 8;
}

std::uint64_t
RegionTracker::metadataBytes(std::uint64_t total_memory) const
{
    std::uint64_t regions =
        (total_memory + regionBytes_ - 1) / regionBytes_;
    return regions * entryBytes();
}

} // namespace core
} // namespace starnuma
