#include "mem/directory.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace mem
{

namespace
{

/** Slots of a fresh table. */
constexpr std::size_t initialSlots = 1024;

} // anonymous namespace

Directory::Directory(int n_sockets)
    : sockets(n_sockets), poolNode(n_sockets), transactions_(0),
      blockTransfers_(0), poolTransfers_(0), invalidations_(0)
{
    sn_assert(n_sockets > 0 && n_sockets <= 64,
              "directory bit-vector supports up to 64 sockets");
    rehash(initialSlots);
}

// lint: hot-path one lookup per LLC miss of the timing simulation
CoherenceResult
Directory::access(Addr block, NodeId requester, bool write,
                  NodeId home)
{
    sn_assert(requester >= 0 && requester < sockets,
              "requester %d out of range", requester);
    ++transactions_;

    CoherenceResult result;
    std::size_t i = probe(block);
    if (slots[i].block == emptyBlock) {
        if ((used + 1) * 4 > slots.size() * 3) {
            rehash(slots.size() * 2);
            i = probe(block);
        }
        slots[i].block = block;
        ++used;
    }
    Slot &e = slots[i];
    std::uint64_t req_bit = 1ULL << requester;

    // A dirty copy in another socket's cache supplies the data.
    if (e.owner >= 0 && e.owner != requester) {
        result.blockTransfer = true;
        result.owner = e.owner;
        result.viaPool = (home == poolNode);
        ++blockTransfers_;
        if (result.viaPool)
            ++poolTransfers_;
    }

    if (write) {
        // Invalidate every other sharer; requester becomes the
        // exclusive dirty owner.
        std::uint64_t others = e.sharerMask & ~req_bit;
        result.invalidations = std::popcount(others);
        result.invalidatedMask = others;
        invalidations_ += result.invalidations;
        e.sharerMask = req_bit;
        e.owner = requester;
    } else {
        // The previous dirty owner (if any) downgrades to shared;
        // memory is now up to date.
        e.sharerMask |= req_bit;
        e.owner = -1;
    }
    return result;
}

// lint: hot-path one call per LLC eviction of the timing simulation
void
Directory::evict(Addr block, NodeId socket)
{
    std::size_t i = probe(block);
    Slot &e = slots[i];
    if (e.block == emptyBlock)
        return;
    e.sharerMask &= ~(1ULL << socket);
    if (e.owner == socket)
        e.owner = -1;
    if (e.sharerMask == 0)
        erase(i);
}

void
Directory::erase(std::size_t hole)
{
    // Pull back every later slot of the chain whose home lies at or
    // before the hole, so no chain ever crosses a free slot.
    for (std::size_t j = (hole + 1) & mask;
         slots[j].block != emptyBlock; j = (j + 1) & mask) {
        if (((j - homeSlot(slots[j].block)) & mask) >=
            ((j - hole) & mask)) {
            slots[hole] = slots[j];
            hole = j;
        }
    }
    slots[hole] = freeSlot;
    --used;
}

// lint: cold-path amortized growth at 3/4 load, outlined so the hot
// access() symbol carries no allocation
void
Directory::rehash(std::size_t capacity)
{
    std::vector<Slot> old =
        std::exchange(slots, std::vector<Slot>(capacity, freeSlot));
    mask = capacity - 1;
    shift = 64 - std::countr_zero(capacity);
    for (const Slot &s : old)
        if (s.block != emptyBlock)
            slots[probe(s.block)] = s;
}

// Free slots hold a zero sharer mask and no owner, so a lookup that
// ends on one reads as an untracked block.
bool
Directory::cached(Addr block) const
{
    return slots[probe(block)].block != emptyBlock;
}

int
Directory::sharers(Addr block) const
{
    return std::popcount(slots[probe(block)].sharerMask);
}

NodeId
Directory::dirtyOwner(Addr block) const
{
    return slots[probe(block)].owner;
}

// lint: cold-path stats export, once per run when observing
void
Directory::registerStats(obs::Registry &r,
                         const std::string &prefix) const
{
    r.addCounter(prefix + ".transactions", &transactions_);
    r.addCounter(prefix + ".blockTransfers", &blockTransfers_);
    r.addCounter(prefix + ".poolTransfers", &poolTransfers_);
    r.addCounter(prefix + ".invalidations", &invalidations_);
    r.addCounterFn(prefix + ".trackedBlocks",
                   [this] { return trackedBlocks(); });
}

} // namespace mem
} // namespace starnuma
