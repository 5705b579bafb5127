#include "trace/trace.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace starnuma
{
namespace trace
{

std::uint64_t
WorkloadTrace::totalRecords() const
{
    std::uint64_t total = 0;
    for (const auto &t : perThread)
        total += t.size();
    return total;
}

double
WorkloadTrace::recordsPerKiloInstruction() const
{
    std::uint64_t instr =
        instructionsPerThread * static_cast<std::uint64_t>(threads);
    return instr ? 1000.0 * static_cast<double>(totalRecords()) /
                       static_cast<double>(instr)
                 : 0.0;
}

PageRange
pageSpan(const WorkloadTrace &trace)
{
    std::uint64_t lo = trace.minPage.value();
    std::uint64_t hi = trace.maxPage.value();
    if (lo == 0 && hi == 0) {
        lo = ~std::uint64_t(0);
        for (const auto &ft : trace.firstTouches) {
            lo = std::min(lo, ft.page.value());
            hi = std::max(hi, ft.page.value());
        }
        for (const auto &recs : trace.perThread) {
            for (const auto &r : recs) {
                std::uint64_t p = pageNumber(r.vaddr()).value();
                lo = std::min(lo, p);
                hi = std::max(hi, p);
            }
        }
        if (lo > hi)
            return PageRange{};
    }
    sn_assert(hi - lo < maxSpanPages,
              "trace '%s' spans %llu pages [%llu, %llu], over the "
              "%llu-page limit of the replay page tables",
              trace.workload.c_str(),
              static_cast<unsigned long long>(hi - lo + 1),
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi),
              static_cast<unsigned long long>(maxSpanPages));
    return PageRange{PageNum(lo), hi - lo + 1};
}

} // namespace trace
} // namespace starnuma
