#include "trace/profile.hh"

#include <bit>
#include <vector>

#include "sim/logging.hh"

namespace starnuma
{
namespace trace
{

SharingProfile::SharingProfile(const WorkloadTrace &trace,
                               int cores_per_socket, int sockets)
    : sockets_(sockets), totalPages_(0), totalAccesses_(0),
      pagesByDegree(sockets + 1, 0), accessesByDegree(sockets + 1, 0),
      rwPagesByDegree(sockets + 1, 0),
      rwAccessesByDegree(sockets + 1, 0)
{
    sn_assert(cores_per_socket > 0 && sockets > 0 && sockets <= 64,
              "bad sharing profile shape");

    struct PageInfo
    {
        std::uint64_t sharerMask = 0;
        std::uint64_t accesses = 0;
        bool written = false;
    };
    const PageRange span = pageSpan(trace);
    std::vector<PageInfo> pages(span.pages);

    for (int t = 0; t < trace.threads; ++t) {
        NodeId socket = t / cores_per_socket;
        sn_assert(socket < sockets, "thread %d beyond socket count",
                  t);
        for (const MemRecord &r : trace.perThread[t]) {
            PageInfo &p = pages[span.slot(pageNumber(r.vaddr()))];
            p.sharerMask |= 1ULL << socket;
            ++p.accesses;
            p.written |= r.isWrite();
        }
    }

    for (PageNum wp : trace.writtenPages)
        if (span.slot(wp) < span.pages)
            pages[span.slot(wp)].written = true;

    // Only pages with records count; every sum below is commutative.
    for (const PageInfo &p : pages) {
        if (p.accesses == 0)
            continue;
        ++totalPages_;
        int degree = std::popcount(p.sharerMask);
        ++pagesByDegree[degree];
        accessesByDegree[degree] += p.accesses;
        totalAccesses_ += p.accesses;
        if (p.written) {
            ++rwPagesByDegree[degree];
            rwAccessesByDegree[degree] += p.accesses;
        }
    }
}

double
SharingProfile::pageFraction(int degree) const
{
    if (degree < 1 || degree > sockets_ || totalPages_ == 0)
        return 0.0;
    return static_cast<double>(pagesByDegree[degree]) /
           static_cast<double>(totalPages_);
}

double
SharingProfile::accessFraction(int degree) const
{
    if (degree < 1 || degree > sockets_ || totalAccesses_ == 0)
        return 0.0;
    return static_cast<double>(accessesByDegree[degree]) /
           static_cast<double>(totalAccesses_);
}

double
SharingProfile::pagesWithAtMost(int degree) const
{
    double f = 0;
    for (int d = 1; d <= degree && d <= sockets_; ++d)
        f += pageFraction(d);
    return f;
}

double
SharingProfile::accessesAbove(int degree) const
{
    double f = 0;
    for (int d = degree + 1; d <= sockets_; ++d)
        f += accessFraction(d);
    return f;
}

double
SharingProfile::readWriteAccessFraction(int degree) const
{
    if (degree < 1 || degree > sockets_ ||
        accessesByDegree[degree] == 0)
        return 0.0;
    return static_cast<double>(rwAccessesByDegree[degree]) /
           static_cast<double>(accessesByDegree[degree]);
}

double
SharingProfile::readWritePageFraction(int degree) const
{
    if (degree < 1 || degree > sockets_ ||
        pagesByDegree[degree] == 0)
        return 0.0;
    return static_cast<double>(rwPagesByDegree[degree]) /
           static_cast<double>(pagesByDegree[degree]);
}

double
SharingProfile::interChassisFraction(int sockets,
                                     int sockets_per_chassis)
{
    // Uniformly distributed accesses from any socket: the share of
    // other-chassis targets among all sockets.
    return static_cast<double>(sockets - sockets_per_chassis) /
           sockets;
}

} // namespace trace
} // namespace starnuma
