#include "core/replication.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "sim/logging.hh"

namespace starnuma
{
namespace core
{

// lint: cold-path runs once per experiment, after replay
ReplicationPlan
planReplication(const trace::WorkloadTrace &trace,
                int cores_per_socket, int sockets,
                const ReplicationConfig &config)
{
    sn_assert(cores_per_socket > 0 && sockets > 0,
              "bad replication shape");

    struct PageInfo
    {
        std::uint64_t sharerMask = 0;
        std::uint64_t accesses = 0;
        bool written = false;
    };
    const PageRange span = trace::pageSpan(trace);
    std::vector<PageInfo> pages(span.pages);
    for (int t = 0; t < trace.threads; ++t) {
        NodeId socket = t / cores_per_socket;
        for (const auto &r : trace.perThread[t]) {
            PageInfo &p = pages[span.slot(pageNumber(r.vaddr()))];
            p.sharerMask |= 1ULL << socket;
            ++p.accesses;
        }
    }
    for (PageNum wp : trace.writtenPages)
        if (span.slot(wp) < span.pages)
            pages[span.slot(wp)].written = true;

    struct Candidate
    {
        PageNum page;
        int sharers;
        std::uint64_t accesses;
    };
    std::vector<Candidate> candidates;
    ReplicationPlan plan;
    // Candidates are sorted (heat, then page) below; the
    // rejection counter is a commutative sum.
    for (std::uint64_t slot = 0; slot < span.pages; ++slot) {
        const PageInfo &info = pages[slot];
        int sharers = std::popcount(info.sharerMask);
        if (info.accesses == 0 || sharers < config.sharerThreshold)
            continue;
        if (info.written) {
            ++plan.rejectedReadWrite;
            continue;
        }
        candidates.push_back(
            {span.base + PageNum(slot), sharers, info.accesses});
    }

    // Hottest (by access count) first: replication capacity goes
    // where it pays the most.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.accesses != b.accesses)
                      return a.accesses > b.accesses;
                  return a.page < b.page;
              });

    std::uint64_t footprint_pages =
        pagesIn(trace.footprintBytes);
    double budget_pages =
        static_cast<double>(footprint_pages) * config.capacityBudget;
    double replica_pages = 0;
    for (const Candidate &c : candidates) {
        // One extra copy per sharer beyond the home copy.
        double cost = c.sharers - 1;
        if (replica_pages + cost > budget_pages) {
            ++plan.rejectedCapacity;
            continue;
        }
        replica_pages += cost;
        plan.replicated.push_back(c.page);
    }
    std::sort(plan.replicated.begin(), plan.replicated.end());
    plan.capacityOverhead =
        footprint_pages
            ? replica_pages / static_cast<double>(footprint_pages)
            : 0.0;
    return plan;
}

} // namespace core
} // namespace starnuma
