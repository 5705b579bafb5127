/**
 * @file
 * The instrumentation context workloads run against — our stand-in
 * for the paper's Pin-based tracer (§IV-A1). Workload kernels
 * allocate simulated memory from a flat virtual address space and
 * report their loads, stores, and compute instructions per logical
 * thread. Each thread's accesses pass through a private cache
 * filter sized like an L1+L2 (so recorded accesses approximate the
 * LLC-bound stream, as the paper's distributions do); survivors are
 * appended to the thread's memory trace with the current dynamic
 * instruction count.
 *
 * During setup (between beginSetup/endSetup) accesses are untimed
 * and unfiltered: they only record which thread first touched each
 * page, seeding first-touch placement the way parallel
 * initialization does on a real system.
 */

#ifndef STARNUMA_TRACE_CAPTURE_HH
#define STARNUMA_TRACE_CAPTURE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace starnuma
{
namespace trace
{

/** Capture-side instrumentation for one workload run. */
class CaptureContext
{
  public:
    /**
     * @param threads logical threads of the run.
     * @param filter geometry of the per-thread capture filter
     *        (default: a 256 KB, 8-way L2 proxy).
     */
    explicit CaptureContext(int threads,
                            mem::CacheConfig filter = {256 * 1024,
                                                       8});

    int threads() const { return static_cast<int>(state.size()); }

    // --- Simulated address space ---

    /**
     * Allocate @p bytes of simulated memory (page aligned). Every
     * later access must fall inside the allocations made so far.
     * @return the region's base virtual address.
     */
    Addr alloc(Addr bytes);

    /** Bytes allocated so far (the workload footprint). */
    Addr footprint() const { return nextAddr - baseAddr; }

    // --- Setup (untimed first-touch) mode ---

    void beginSetup() { inSetup = true; }
    void endSetup() { inSetup = false; }

    // --- Per-thread instrumentation ---

    /** Account @p n non-memory instructions to thread @p t. */
    void
    instr(ThreadId t, std::uint64_t n = 1)
    {
        state[t].instructions += n;
    }

    /** A load by thread @p t from @p vaddr. */
    void load(ThreadId t, Addr vaddr) { access(t, vaddr, false); }

    /** A store by thread @p t to @p vaddr. */
    void store(ThreadId t, Addr vaddr) { access(t, vaddr, true); }

    /** Thread @p t's dynamic instruction count. */
    std::uint64_t
    instructions(ThreadId t) const
    {
        return state[t].instructions;
    }

    /** Smallest instruction count across threads. */
    std::uint64_t minInstructions() const;

    /** Move the capture out as a WorkloadTrace. */
    WorkloadTrace take(const std::string &workload,
                       std::uint64_t instructions_per_thread);

  private:
    void access(ThreadId t, Addr vaddr, bool write);

    struct ThreadState
    {
        explicit ThreadState(const mem::CacheConfig &cfg)
            : filter(cfg), instructions(0)
        {
        }

        mem::Cache filter;
        std::uint64_t instructions;
        std::vector<MemRecord> records;
    };

    static constexpr Addr baseAddr = 0x10000000;

    std::vector<ThreadState> state;
    // One byte per allocated page (slot = page - first page).
    std::vector<std::uint8_t> written;
    std::vector<std::uint8_t> touched;
    std::vector<FirstTouch> firstTouches;
    Addr nextAddr;
    bool inSetup;
};

/**
 * A typed view over a simulated allocation: indexes translate to
 * traced loads/stores while the actual values live in a real
 * std::vector owned by the workload.
 */
template <typename T>
class TracedArray
{
  public:
    TracedArray() : base_(0) {}

    /** Allocate backing simulated memory for @p n elements. */
    void
    allocate(CaptureContext &ctx, std::size_t n)
    {
        data_.assign(n, T{});
        base_ = ctx.alloc(n * sizeof(T));
    }

    std::size_t size() const { return data_.size(); }
    Addr base() const { return base_; }

    /** Simulated address of element @p i. */
    Addr
    addrOf(std::size_t i) const
    {
        return base_ + i * sizeof(T);
    }

    /** Traced read of element @p i by thread @p t. */
    const T &
    read(CaptureContext &ctx, ThreadId t, std::size_t i)
    {
        ctx.load(t, addrOf(i));
        return data_[i];
    }

    /** Traced write of element @p i by thread @p t. */
    void
    write(CaptureContext &ctx, ThreadId t, std::size_t i, T value)
    {
        ctx.store(t, addrOf(i));
        data_[i] = value;
    }

    /** Untraced access (setup-time or bookkeeping). */
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    std::vector<T> data_;
    Addr base_;
};

} // namespace trace
} // namespace starnuma

#endif // STARNUMA_TRACE_CAPTURE_HH
