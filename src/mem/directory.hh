/**
 * @file
 * Directory-based MESI coherence at cache-block granularity,
 * tracked per socket (i.e., per shared LLC), as §III-C prescribes:
 * directory information is distributed across sockets and the pool
 * aligned with the address space; accesses missing in their
 * originating socket are routed to the home node, which initiates
 * all subsequent coherence actions.
 *
 * The directory distinguishes the two block-transfer shapes of
 * Fig 4: a 3-hop cache-to-cache transfer when the home is a socket
 * (R -> H -> O -> R) and a 4-hop transfer through the pool when the
 * home is the pool (R -> H -> O -> H -> R).
 */

#ifndef STARNUMA_MEM_DIRECTORY_HH
#define STARNUMA_MEM_DIRECTORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/annotations.hh"
#include "sim/types.hh"

namespace starnuma
{

namespace obs
{
class Registry;
} // namespace obs

namespace mem
{

/** What the directory decided for one LLC-missing access. */
struct CoherenceResult
{
    /** Data supplied by another socket's cache, not by memory. */
    bool blockTransfer = false;

    /** Supplier socket when blockTransfer is set. */
    NodeId owner = -1;

    /** True when the transfer is the 4-hop via-pool shape. */
    bool viaPool = false;

    /** Number of remote sharers invalidated (writes only). */
    int invalidations = 0;

    /** Bit mask of the sockets that were invalidated. */
    std::uint64_t invalidatedMask = 0;
};

/** Distributed full-map MESI directory (bit-vector of sockets). */
class Directory
{
  public:
    explicit Directory(int sockets);

    /**
     * Record an LLC miss for @p block by socket @p requester,
     * homed at @p home (a socket or the pool node id).
     *
     * @param write true for stores (requests ownership).
     * @return the coherence actions the protocol performs.
     */
    CoherenceResult access(Addr block, NodeId requester, bool write,
                           NodeId home);

    /**
     * Socket @p socket dropped @p block from its LLC (capacity
     * eviction or shootdown); clears its presence bit.
     */
    void evict(Addr block, NodeId socket);

    /** Hint that @p block's entry will be looked up soon. */
    void
    prefetch(Addr block) const
    {
        __builtin_prefetch(&slots[homeSlot(block)]);
    }

    /** True if any socket caches @p block. */
    bool cached(Addr block) const;

    /** Number of sockets currently sharing @p block. */
    int sharers(Addr block) const;

    /** Dirty-owner socket of @p block, or -1. */
    NodeId dirtyOwner(Addr block) const;

    /** Blocks with at least one presence bit set. */
    std::size_t trackedBlocks() const { return used; }

    // Aggregate stats for §V-A's coherence-activity discussion.
    std::uint64_t transactions() const { return transactions_; }
    std::uint64_t blockTransfers() const { return blockTransfers_; }
    std::uint64_t poolTransfers() const { return poolTransfers_; }
    std::uint64_t invalidations() const { return invalidations_; }

    /** Register the aggregate coherence counters. */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    /**
     * One tracked block, stored inline in the open-addressing table
     * (DESIGN.md §12). A free slot is freeSlot: emptyBlock, which is
     * not block-aligned and so never a block, with no sharers.
     */
    struct Slot
    {
        Addr block;
        std::uint64_t sharerMask;
        NodeId owner; ///< dirty owner, -1 when block is clean
    };

    static constexpr Addr emptyBlock = ~Addr(0);
    static constexpr Slot freeSlot{emptyBlock, 0, -1};

    /** Home slot of @p block: the high bits of a Fibonacci hash. */
    std::size_t
    homeSlot(Addr block) const
    {
        return static_cast<std::size_t>(
            (block * 0x9e3779b97f4a7c15ULL) >> shift);
    }

    /** Slot holding @p block, or the free slot ending its chain. */
    std::size_t
    probe(Addr block) const
    {
        std::size_t i = homeSlot(block);
        while (slots[i].block != block &&
               slots[i].block != emptyBlock)
            i = (i + 1) & mask;
        return i;
    }

    /** Empty slot @p hole with backward-shift deletion. */
    void erase(std::size_t hole);

    /** Resize the table to @p capacity slots (a power of two). */
    STARNUMA_COLD_PATH void rehash(std::size_t capacity);

    int sockets;
    NodeId poolNode;
    std::vector<Slot> slots;
    std::size_t mask = 0;
    int shift = 64; ///< 64 - log2(slots.size())
    std::size_t used = 0;
    std::uint64_t transactions_;
    std::uint64_t blockTransfers_;
    std::uint64_t poolTransfers_;
    std::uint64_t invalidations_;
};

} // namespace mem
} // namespace starnuma

#endif // STARNUMA_MEM_DIRECTORY_HH
