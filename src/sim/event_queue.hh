/**
 * @file
 * Discrete-event kernel of the timing simulation (driver/timing_sim).
 *
 * Events are typed plain-data records, not callbacks. The owner
 * (PhaseSim) defines a record type with a kind enum and a payload,
 * schedules records at absolute cycle times, pops them back in time
 * order and dispatches on the kind with a `switch`. Nothing on the
 * schedule/pop path allocates once the queue has grown to its
 * working depth:
 *
 * - **Slab.** Records live in a slab of fixed slots, preallocated by
 *   the constructor and reused through a LIFO free list, so a popped
 *   slot is the next one filled (it is still in cache). Growth
 *   (doubling) happens only when every slot is pending, in one
 *   outlined `STARNUMA_COLD_PATH` helper.
 * - **Heap.** The order lives in a flat 4-ary min-heap of 16-byte
 *   keys: the event's cycle and `seq << slotBits | slot`, compared
 *   as one 128-bit number. Sifting moves keys, never records, and
 *   four children are 64 bytes. A pop refills the root bottom-up.
 * - **Ties.** `seq` counts schedule() calls, so same-cycle events
 *   pop in the order they were scheduled (FIFO), exactly as a stable
 *   sort by (when, insertion order) would.
 */

#ifndef STARNUMA_SIM_EVENT_QUEUE_HH
#define STARNUMA_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/annotations.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace starnuma
{

/**
 * Time-ordered queue of @p Record events with FIFO ordering among
 * same-cycle events.
 */
template <typename Record>
class EventQueue
{
    static_assert(std::is_trivially_copyable_v<Record>,
                  "event records are plain data copied into a slab");

  public:
    /** @param capacity slots to preallocate (the expected peak depth). */
    explicit EventQueue(std::size_t capacity = 64)
    {
        grow(std::max<std::size_t>(capacity, 1));
    }

    /** Current simulation time: the cycle of the last popped event. */
    Cycles now() const { return now_; }

    /** Number of events popped so far. */
    std::uint64_t executed() const { return executed_; }

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return size_; }

    /** Largest number of events ever pending at once. */
    std::size_t peakPending() const { return peak_; }

    /** Schedule @p record at absolute time @p when (>= now). */
    // lint: hot-path every simulated message passes through here
    STARNUMA_AUDITED_SYMBOL void
    schedule(Cycles when, const Record &record)
    {
        sn_assert(when >= now_, "scheduling into the past (%llu < %llu)",
                  static_cast<unsigned long long>(when.value()),
                  static_cast<unsigned long long>(now_.value()));
        sn_assert(nextSeq <= maxSeq, "event sequence exhausted");
        if (freeTop == 0)
            grow(slab.size() * 2);
        std::uint32_t slot = freeSlots[--freeTop];
        slab[slot] = record;
        siftUp(size_++,
               Key{when.value(), (nextSeq++ << slotBits) | slot});
        peak_ = std::max(peak_, size_);
    }

    /**
     * Pop the earliest event into @p out and advance now() to its
     * cycle. @return false (and leave @p out alone) when empty.
     */
    // lint: hot-path one call per simulated event
    STARNUMA_AUDITED_SYMBOL bool
    pop(Record &out)
    {
        if (size_ == 0)
            return false;
        Key top = heap[0];
        --size_;
        if (size_ > 0)
            reseat(heap[size_]);
        std::uint32_t slot =
            static_cast<std::uint32_t>(top.order & slotMask);
        out = slab[slot];
        freeSlots[freeTop++] = slot;
        now_ = Cycles(top.when);
        ++executed_;
        return true;
    }

  private:
    /** Heap key: (when, seq) order with the record's slot packed in. */
    struct Key
    {
        std::uint64_t when;
        std::uint64_t order; ///< seq << slotBits | slot

        /** One 128-bit compare: no data-dependent branch. */
        bool
        operator<(const Key &o) const
        {
            using Wide = unsigned __int128;
            return (Wide(when) << 64 | order) <
                   (Wide(o.when) << 64 | o.order);
        }
    };

    static constexpr int slotBits = 24;
    static constexpr std::uint64_t slotMask = (1ULL << slotBits) - 1;
    static constexpr std::uint64_t maxSeq =
        (1ULL << (64 - slotBits)) - 1;
    static constexpr std::size_t arity = 4;

    void
    siftUp(std::size_t pos, Key key)
    {
        while (pos > 0) {
            std::size_t parent = (pos - 1) / arity;
            if (!(key < heap[parent]))
                break;
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = key;
    }

    /**
     * Refill the root's hole with @p key, taken off the end
     * (bottom-up): the hole first sinks to a leaf along the smaller
     * child, then @p key rises from there. A key taken off the end
     * belongs near the bottom, so this skips the compare against it
     * on the way down.
     */
    void
    reseat(Key key)
    {
        std::size_t pos = 0;
        for (;;) {
            std::size_t first = pos * arity + 1;
            std::size_t best;
            if (first + arity <= size_) {
                // All four children: a two-round tournament.
                std::size_t a = first + (heap[first + 1] < heap[first]);
                std::size_t b =
                    first + 2 + (heap[first + 3] < heap[first + 2]);
                best = heap[b] < heap[a] ? b : a;
            } else if (first < size_) {
                best = first;
                for (std::size_t c = first + 1; c < size_; ++c)
                    best = heap[c] < heap[best] ? c : best;
            } else {
                break;
            }
            heap[pos] = heap[best];
            pos = best;
        }
        siftUp(pos, key);
    }
    /**
     * Grow the slab, the heap and the free list to @p slots; the new
     * slots go on the free list so the lowest is handed out first.
     * After construction, reached only when every slot is pending.
     */
    // lint: cold-path amortized doubling past the preallocated depth
    STARNUMA_COLD_PATH void
    grow(std::size_t slots)
    {
        sn_assert(slots <= slotMask + 1, "event queue over %llu slots",
                  static_cast<unsigned long long>(slotMask + 1));
        std::size_t old = slab.size();
        slab.resize(slots);
        heap.resize(slots);
        freeSlots.resize(slots);
        for (std::size_t s = slots; s > old; --s)
            freeSlots[freeTop++] = static_cast<std::uint32_t>(s - 1);
    }

    std::vector<Record> slab;
    std::vector<Key> heap;               ///< [0, size_) is the heap
    std::vector<std::uint32_t> freeSlots; ///< [0, freeTop) is free
    std::size_t freeTop = 0;
    std::size_t size_ = 0;
    std::size_t peak_ = 0;
    Cycles now_;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed_ = 0;
};

} // namespace starnuma

#endif // STARNUMA_SIM_EVENT_QUEUE_HH
