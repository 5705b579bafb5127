#include "core/perfect_policy.hh"

#include <algorithm>

namespace starnuma
{
namespace core
{

PerfectPagePolicy::PerfectPagePolicy(
    int sockets, PageRange range,
    std::uint32_t migration_limit_pages, std::uint32_t min_accesses)
    : stats(sockets, range), limit(migration_limit_pages),
      minAccesses(min_accesses), migrated_(0)
{
}

// lint: cold-path end-of-phase decision, runs once per phase
std::vector<PageMigration>
PerfectPagePolicy::decidePhase(mem::PageMap &pages)
{
    struct Candidate
    {
        PageNum page;
        NodeId from;
        NodeId to;
        std::uint64_t heat;
    };

    std::vector<Candidate> candidates;
    stats.forEach([&](PageNum page, const std::uint32_t *counts) {
        std::uint64_t total = 0;
        NodeId best = 0;
        for (int s = 0; s < stats.sockets(); ++s) {
            total += counts[s];
            if (counts[s] > counts[best])
                best = s;
        }
        if (total < minAccesses)
            return;
        NodeId curr = pages.home(page);
        if (curr == mem::invalidNode || curr == best)
            return;
        candidates.push_back({page, curr, best, total});
    });

    // Perfect knowledge lets the baseline spend its budget on the
    // pages where it matters most.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.heat != b.heat)
                      return a.heat > b.heat;
                  return a.page < b.page;
              });
    if (candidates.size() > limit)
        candidates.resize(limit);

    std::vector<PageMigration> plan;
    plan.reserve(candidates.size());
    for (const Candidate &c : candidates) {
        pages.setHome(c.page, c.to);
        plan.push_back({c.page, c.from, c.to});
        ++migrated_;
    }
    stats.reset();
    return plan;
}

} // namespace core
} // namespace starnuma
