#include "trace/capture.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace starnuma
{
namespace trace
{

CaptureContext::CaptureContext(int threads, mem::CacheConfig filter)
    : nextAddr(baseAddr), inSetup(false)
{
    sn_assert(threads > 0, "capture needs at least one thread");
    state.reserve(threads);
    for (int t = 0; t < threads; ++t)
        state.emplace_back(filter);
}

Addr
CaptureContext::alloc(Addr bytes)
{
    Addr base = nextAddr;
    std::uint64_t pages = pagesCovering(bytes);
    nextAddr += pages * pageBytes;
    written.resize(written.size() + pages, 0);
    touched.resize(touched.size() + pages, 0);
    return base;
}

void
CaptureContext::access(ThreadId t, Addr vaddr, bool write)
{
    sn_assert(t >= 0 && static_cast<std::size_t>(t) < state.size(),
              "access by unknown thread %d", t);
    PageNum page = pageNumber(vaddr);
    std::uint64_t slot = page.value() - pageNumber(baseAddr).value();
    sn_assert(slot < written.size(),
              "access to page %llu outside the capture's allocations",
              static_cast<unsigned long long>(page.value()));
    if (inSetup) {
        // Setup accesses are untimed; writes seed first touch.
        if (write && !touched[slot]) {
            touched[slot] = 1;
            firstTouches.push_back({page, t});
        }
        return;
    }
    ThreadState &ts = state[t];
    ++ts.instructions; // the memory op is an instruction too
    if (write)
        written[slot] = 1;
    if (!ts.filter.access(vaddr, write).hit)
        ts.records.emplace_back(ts.instructions, vaddr, write);
}

std::uint64_t
CaptureContext::minInstructions() const
{
    std::uint64_t lo = ~std::uint64_t(0);
    for (const auto &ts : state)
        lo = std::min(lo, ts.instructions);
    return lo;
}

WorkloadTrace
CaptureContext::take(const std::string &workload,
                     std::uint64_t instructions_per_thread)
{
    WorkloadTrace t;
    t.workload = workload;
    t.threads = threads();
    t.instructionsPerThread = instructions_per_thread;
    t.footprintBytes = footprint();
    if (nextAddr > baseAddr) {
        // The bump allocator spans one contiguous page range;
        // every access and first touch falls inside it.
        t.minPage = pageNumber(baseAddr);
        t.maxPage = pageNumber(nextAddr - 1);
    }
    t.firstTouches = std::move(firstTouches);
    // A scan in slot order lists the written pages in ascending
    // order.
    for (std::size_t slot = 0; slot < written.size(); ++slot)
        if (written[slot])
            t.writtenPages.push_back(t.minPage + PageNum(slot));
    t.perThread.reserve(state.size());
    for (auto &ts : state)
        t.perThread.push_back(std::move(ts.records));
    return t;
}

} // namespace trace
} // namespace starnuma
