#include "sim/stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace starnuma
{
namespace stats
{

Histogram::Histogram(std::size_t buckets, double bucket_width)
    : counts(buckets, 0), width(bucket_width), total_(0),
      overflow_(0)
{
    sn_assert(buckets > 0 && bucket_width > 0,
              "bad histogram shape");
}

void
Histogram::sample(double v, std::uint64_t weight)
{
    if (v < 0)
        v = 0;
    auto idx = static_cast<std::size_t>(v / width);
    if (idx >= counts.size())
        overflow_ += weight;
    else
        counts[idx] += weight;
    total_ += weight;
}

double
Histogram::fraction(std::size_t i) const
{
    return total_ ? static_cast<double>(counts.at(i)) /
                        static_cast<double>(total_)
                  : 0.0;
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(total_));
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        running += counts[i];
        if (running >= target)
            return static_cast<double>(i + 1) * width;
    }
    return static_cast<double>(counts.size()) * width;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        sn_assert(v > 0, "geomean of non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum /
                    static_cast<double>(values.size()));
}

} // namespace stats
} // namespace starnuma
