/**
 * @file
 * The in-memory metadata region of §III-D1: physical memory is
 * logically split into regions of several consecutive pages; each
 * region's tracker entry holds (i) one presence bit per socket and
 * (ii) an i-bit saturating access counter. A tracker design T_i is
 * parameterized by the counter width; T_0 tracks only which sockets
 * touched the region (enough to find widely shared regions), T_16
 * additionally ranks region hotness.
 */

#ifndef STARNUMA_CORE_REGION_TRACKER_HH
#define STARNUMA_CORE_REGION_TRACKER_HH

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace starnuma
{
namespace core
{

/** Region number (region-granular index of an address). */
using RegionId = Addr;

/** One metadata-region entry (a T_i tracker entry). */
struct TrackerEntry
{
    std::uint64_t sharerMask = 0;
    std::uint32_t accesses = 0;

    int sharerCount() const;
};

/** The per-region access-metadata table. */
class RegionTracker
{
  public:
    /**
     * @param counter_bits i of the T_i design (0 disables counting).
     * @param sockets sockets whose presence bits are tracked.
     * @param region_bytes region size (paper default 512 KB;
     *        scaled-down runs use 64 KB).
     * @param pages pages whose regions the table covers.
     */
    RegionTracker(int counter_bits, int n_sockets, Addr region_bytes,
                  PageRange pages);

    int counterBits() const { return counterBits_; }
    Addr regionBytes() const { return regionBytes_; }
    int pagesPerRegion() const;

    /** Region containing @p addr. */
    RegionId
    regionOf(Addr addr) const
    {
        return addr / regionBytes_;
    }

    /** First page number of region @p region. */
    PageNum
    firstPage(RegionId region) const
    {
        return regionFirstPage(region, regionBytes_);
    }

    /**
     * Fold @p count accesses by @p socket into the region holding
     * @p addr (the PTW adding a TLB annex value, §III-D1). The
     * counter saturates at 2^i - 1; with T_0 only the presence bit
     * is recorded. Panics when the region is outside the table.
     */
    // lint: hot-path (called once per TLB annex flush)
    STARNUMA_AUDITED_SYMBOL void
    record(Addr addr, NodeId socket, std::uint32_t count = 1)
    {
        sn_assert(socket >= 0 && socket < sockets,
                  "record from unknown socket %d", socket);
        RegionId region = regionOf(addr);
        std::uint64_t slot = region - regionBase;
        sn_assert(slot < entries.size(),
                  "region %llu outside the tracker's range",
                  static_cast<unsigned long long>(region));
        TrackerEntry *e = &entries[slot];
        // Every record sets a presence bit, so an untouched entry is
        // exactly one with an empty sharer mask.
        if (e->sharerMask == 0)
            noteFirstTouch(region);
        e->sharerMask |= 1ULL << socket;
        if (counterBits_ > 0) {
            std::uint64_t next =
                static_cast<std::uint64_t>(e->accesses) + count;
            e->accesses = next > counterMax
                              ? counterMax
                              : static_cast<std::uint32_t>(next);
        }
    }

    /** Entry for @p region (zero entry if never touched or outside
     *  the table). */
    const TrackerEntry &entry(RegionId region) const;

    /** Regions with at least one recorded access this phase. */
    std::size_t touchedRegions() const { return touchedOrder.size(); }

    /**
     * Size in bytes of the metadata region for @p total_memory
     * bytes of tracked memory (§III-D4's 128 MB check).
     */
    std::uint64_t metadataBytes(std::uint64_t total_memory) const;

    /** Per-entry metadata size in bytes for this T_i design. */
    std::uint64_t entryBytes() const;

    /**
     * End-of-phase scan: visit every touched region, then clear all
     * counters and presence bits (Algorithm 1 resets counters once
     * per phase).
     */
    template <typename Fn>
    void
    scanAndReset(Fn &&fn)
    {
        for (RegionId region : touchedOrder)
            fn(region, entries[region - regionBase]);
        reset();
    }

    /** Clear without scanning. */
    void
    reset()
    {
        for (RegionId region : touchedOrder)
            entries[region - regionBase] = TrackerEntry{};
        touchedOrder.clear();
    }

  private:
    /**
     * Out-of-line first-touch append: keeps the vector's
     * reallocation machinery (and its operator new call) out of the
     * record() hot symbol, which scripts/check_hotpath_syms.sh
     * verifies at the binary level. Capacity for every region is
     * reserved at construction, so the push never reallocates.
     */
    // lint: cold-path capacity reserved in the constructor
    STARNUMA_COLD_PATH void
    noteFirstTouch(RegionId region)
    {
        touchedOrder.push_back(region);
    }

    int counterBits_;
    int sockets;
    Addr regionBytes_;
    std::uint32_t counterMax;
    RegionId regionBase = 0;
    std::vector<TrackerEntry> entries; // entry per region slot
    std::vector<RegionId> touchedOrder; // first-touch order
    static const TrackerEntry zeroEntry;
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_REGION_TRACKER_HH
