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
#include "sim/flat_map.hh"
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
     */
    RegionTracker(int counter_bits, int n_sockets, Addr region_bytes);

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
     * Switch to flat-table storage over regions
     * [base, base + regions). Must be called while no region is
     * touched; every region recorded afterwards must fall in the
     * range. Iteration order (first-touch order) is unchanged.
     */
    void preallocate(RegionId base, std::size_t regions);

    /**
     * Fold @p count accesses by @p socket into the region holding
     * @p addr (the PTW adding a TLB annex value, §III-D1). The
     * counter saturates at 2^i - 1; with T_0 only the presence bit
     * is recorded.
     */
    // lint: hot-path (called once per TLB annex flush)
    STARNUMA_AUDITED_SYMBOL void
    record(Addr addr, NodeId socket, std::uint32_t count = 1)
    {
        sn_assert(socket >= 0 && socket < sockets,
                  "record from unknown socket %d", socket);
        RegionId region = regionOf(addr);
        TrackerEntry *e;
        if (flat.empty()) {
            e = &sparseEntry(region);
        } else {
            std::uint64_t slot = region - flatBase;
            sn_assert(slot < flat.size(),
                      "region outside the preallocated range");
            e = &flat[slot];
            // Every record sets a presence bit, so an untouched
            // entry is exactly one with an empty sharer mask.
            if (e->sharerMask == 0)
                noteFirstTouch(region);
        }
        e->sharerMask |= 1ULL << socket;
        if (counterBits_ > 0) {
            std::uint64_t next =
                static_cast<std::uint64_t>(e->accesses) + count;
            e->accesses = next > counterMax
                              ? counterMax
                              : static_cast<std::uint32_t>(next);
        }
    }

    /** Entry for @p region (zero entry if never touched). */
    const TrackerEntry &entry(RegionId region) const;

    /** Regions with at least one recorded access this phase. */
    std::size_t
    touchedRegions() const
    {
        return flat.empty() ? entries.size() : touchedOrder.size();
    }

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
        if (flat.empty()) {
            for (auto &[region, e] : entries)
                fn(region, e);
            entries.clear();
        } else {
            for (RegionId region : touchedOrder)
                fn(region, flat[region - flatBase]);
            reset();
        }
    }

    /** Clear without scanning. */
    void
    reset()
    {
        entries.clear();
        for (RegionId region : touchedOrder)
            flat[region - flatBase] = TrackerEntry{};
        touchedOrder.clear();
    }

  private:
    /**
     * Out-of-line first-touch append: keeps the vector's
     * reallocation machinery (and its operator new call) out of the
     * record() hot symbol, which scripts/check_hotpath_syms.sh
     * verifies at the binary level. Capacity is reserved in
     * preallocate(), so the push never actually reallocates.
     */
    // lint: cold-path capacity reserved in preallocate()
    STARNUMA_COLD_PATH void
    noteFirstTouch(RegionId region)
    {
        touchedOrder.push_back(region);
    }

    /**
     * Out-of-line sparse-mode lookup-or-insert, for the same reason
     * as noteFirstTouch(): the FlatMap's growth path (and its
     * operator new call) stays out of the record() hot symbol.
     */
    // lint: cold-path sparse FlatMap mode; replay preallocates the
    // flat table for dense captured traces
    STARNUMA_COLD_PATH TrackerEntry &
    sparseEntry(RegionId region)
    {
        return entries[region];
    }

    int counterBits_;
    int sockets;
    Addr regionBytes_;
    std::uint32_t counterMax;
    FlatMap<RegionId, TrackerEntry> entries;
    std::vector<TrackerEntry> flat; // flat mode: entry per slot
    std::vector<RegionId> touchedOrder;
    RegionId flatBase = 0;
    static const TrackerEntry zeroEntry;
};

} // namespace core
} // namespace starnuma

#endif // STARNUMA_CORE_REGION_TRACKER_HH
