/**
 * @file
 * Set-associative write-back cache with LRU replacement. Used in
 * three roles: the per-thread L1+L2 filter applied at trace-capture
 * time (§IV-A1), the per-socket shared LLC of the detailed socket,
 * and the "LLC-sized cache" each light socket keeps to filter
 * accesses and support coherence modeling (§IV-B).
 */

#ifndef STARNUMA_MEM_CACHE_HH
#define STARNUMA_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include <string>

#include "sim/types.hh"

namespace starnuma
{

namespace obs
{
class Registry;
} // namespace obs

namespace mem
{

/** Geometry of a cache. */
struct CacheConfig
{
    Addr sizeBytes;
    int ways;
};

/** Outcome of a cache access, including any evicted victim. */
struct CacheAccess
{
    bool hit = false;
    bool evicted = false;      ///< a valid victim block was replaced
    Addr victim = 0;           ///< block address of the victim
    bool victimDirty = false;  ///< victim needs writeback
};

/**
 * Tag-only set-associative cache model (no data storage), laid out
 * as structure-of-arrays: per set, a contiguous run of tags (an
 * empty way holds a tag no block address can equal, so a lookup
 * compares tags only), a parallel run of 64-bit last-use stamps, and
 * valid/dirty bitmasks. A hit is one tag scan plus one stamp store.
 * The victim on a miss is the highest-index invalid way, else the
 * valid way with the smallest stamp (exact LRU).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up the block containing @p addr, allocating on miss.
     * @param write marks the block dirty.
     */
    CacheAccess access(Addr addr, bool write);

    /**
     * Hint that @p addr will be looked up soon: start loading its
     * set's tags and stamps into the host cache. Changes no state.
     */
    void
    prefetch(Addr addr) const
    {
        std::size_t base = setIndex(blockAddr(addr)) * ways;
        __builtin_prefetch(&tags[base]);
        __builtin_prefetch(&tags[base + ways - 1]);
        __builtin_prefetch(&lastUse[base]);
        __builtin_prefetch(&lastUse[base + ways - 1]);
    }

    /** True if the block containing @p addr is present. */
    bool contains(Addr addr) const;

    /**
     * Remove the block containing @p addr (coherence invalidation
     * or page-migration shootdown).
     * @return true if the block was present.
     */
    bool invalidate(Addr addr);

    /** Invalidate every block of the page containing @p addr. */
    int invalidatePage(Addr addr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Fraction of accesses that hit. */
    double
    hitRate() const
    {
        std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_) /
                           static_cast<double>(total)
                     : 0.0;
    }

    std::size_t sets() const { return numSets; }
    int associativity() const { return ways; }

    /** Register hit/miss/eviction counters and the hit rate. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    /** Tag of an empty way: not block-aligned, so never a block. */
    static constexpr Addr emptyTag = ~Addr(0);

    /** Way-indexed state bits of one set (bit w is way w). */
    struct SetBits
    {
        std::uint64_t valid = 0;
        std::uint64_t dirty = 0;
    };

    std::size_t setIndex(Addr block) const;

    /** Way of @p block in set @p set, or -1 when absent. */
    int find(std::size_t set, Addr block) const;

    // Ways stored set-major: set s owns [s*ways, (s+1)*ways) of
    // tags and lastUse.
    std::vector<Addr> tags;
    std::vector<std::uint64_t> lastUse;
    std::vector<SetBits> bits;
    int ways;
    std::size_t numSets;
    std::uint64_t useClock;
    std::uint64_t hits_;
    std::uint64_t misses_;
    std::uint64_t evictions_;
};

} // namespace mem
} // namespace starnuma

#endif // STARNUMA_MEM_CACHE_HH
