/**
 * @file
 * Fundamental scalar types and unit helpers shared by every StarNUMA
 * module. The simulation's unit of time is one core clock cycle at
 * 2.4 GHz (Table I); helpers convert between nanoseconds and cycles.
 */

#ifndef STARNUMA_SIM_TYPES_HH
#define STARNUMA_SIM_TYPES_HH

#include <cstdint>

#include "sim/strong.hh"

namespace starnuma
{

/** Simulated physical or virtual byte address. */
using Addr = std::uint64_t;

/** Simulation time, in core clock cycles (2.4 GHz). */
using Cycles = Strong<struct CyclesTag, std::uint64_t>;

/** Signed cycle delta, for latency arithmetic that may go negative. */
using CycleDelta = Strong<struct CycleDeltaTag, std::int64_t>;

/** Page number (page-granular index of an address). */
using PageNum = Strong<struct PageNumTag, std::uint64_t>;

/** Signed difference @p a - @p b of two absolute cycle times. */
constexpr CycleDelta
cycleDelta(Cycles a, Cycles b)
{
    return CycleDelta(static_cast<std::int64_t>(a.value()) -
                      static_cast<std::int64_t>(b.value()));
}

/** Absolute time @p t displaced by a (possibly negative) @p d. */
constexpr Cycles
advance(Cycles t, CycleDelta d)
{
    return Cycles(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(t.value()) + d.value()));
}

/** Identifier of a CPU socket (0..N-1); the pool gets its own id. */
using NodeId = std::int32_t;

/** Identifier of a logical hardware thread across the whole system. */
using ThreadId = std::int32_t;

/** Core clock frequency assumed throughout (Table I). */
constexpr double clockGHz = 2.4;

/** Cache block size in bytes. */
constexpr Addr blockBytes = 64;

/** Small (base) page size in bytes. */
constexpr Addr pageBytes = 4096;

/** Convert a latency in nanoseconds to core clock cycles (rounded). */
constexpr Cycles
nsToCycles(double ns)
{
    return Cycles(ns * clockGHz + 0.5);
}

/** Convert core clock cycles back to nanoseconds. */
constexpr double
cyclesToNs(Cycles cycles)
{
    return static_cast<double>(cycles.value()) / clockGHz;
}

/**
 * Convert a fractional cycle count (a mean or other derived value)
 * to nanoseconds. Before strong types, passing a double here bound
 * the integer overload and silently truncated the fraction.
 */
constexpr double
cyclesToNs(double cycles)
{
    return cycles / clockGHz;
}

/**
 * Cycles needed to serialize @p bytes over a link of @p gbps GB/s
 * (per direction). 1 GB/s == 1e9 bytes/s; at 2.4e9 cycles/s a byte
 * takes 2.4 / gbps cycles.
 */
constexpr Cycles
serializationCycles(Addr bytes, double gbps)
{
    return Cycles(static_cast<double>(bytes) * clockGHz / gbps + 0.5);
}

/** Address of the cache block containing @p addr. */
constexpr Addr
blockAddr(Addr addr)
{
    return addr & ~(blockBytes - 1);
}

/** Address of the page containing @p addr. */
constexpr Addr
pageAddr(Addr addr)
{
    return addr & ~(pageBytes - 1);
}

/** Page number (page-granular index) of @p addr. */
constexpr PageNum
pageNumber(Addr addr)
{
    return PageNum(addr / pageBytes);
}

/** Byte address of the first byte of page @p page. */
constexpr Addr
pageBase(PageNum page)
{
    return page.value() * pageBytes;
}

/** Whole pages contained in @p bytes (floor; exact when the size is
 *  page aligned, e.g. a trace footprint). */
constexpr std::uint64_t
pagesIn(Addr bytes)
{
    return bytes / pageBytes;
}

/** Pages needed to cover @p bytes (ceiling; allocation sizing). */
constexpr std::uint64_t
pagesCovering(Addr bytes)
{
    return (bytes + pageBytes - 1) / pageBytes;
}

/**
 * Contiguous page range [base, base + pages): the key space of the
 * dense page- and region-keyed tables (DESIGN.md §12).
 */
struct PageRange
{
    PageNum base;
    std::uint64_t pages = 0;

    /**
     * Offset of @p page from base. Pages below base wrap to huge
     * offsets, so `slot(p) < pages` is the whole membership test.
     */
    constexpr std::uint64_t
    slot(PageNum page) const
    {
        return page.value() - base.value();
    }
};

/** Pages per migration region for a page-aligned region size. */
constexpr int
pagesPerRegion(Addr region_bytes)
{
    return static_cast<int>(region_bytes / pageBytes);
}

/** First page of region @p region (page-aligned region size). */
constexpr PageNum
regionFirstPage(std::uint64_t region, Addr region_bytes)
{
    return PageNum(region * (region_bytes / pageBytes));
}

} // namespace starnuma

#endif // STARNUMA_SIM_TYPES_HH
