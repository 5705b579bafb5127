/**
 * @file
 * Lightweight statistics primitives: scalar counters, running means,
 * and fixed-bin histograms. Components own their stats directly (no
 * global registry); report code pulls values and formats them.
 */

#ifndef STARNUMA_SIM_STATS_HH
#define STARNUMA_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace starnuma
{
namespace stats
{

/** Running mean/min/max over double samples. */
class Mean
{
  public:
    Mean() : sum_(0), count_(0), min_(0), max_(0) {}

    void
    sample(double v)
    {
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            if (v < min_) min_ = v;
            if (v > max_) max_ = v;
        }
        sum_ += v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    double sum_;
    std::uint64_t count_;
    double min_;
    double max_;
};

/**
 * Histogram over [0, buckets*width) with an overflow bucket; used
 * for latency distributions and sharing-degree counts.
 */
class Histogram
{
  public:
    Histogram(std::size_t buckets, double width);

    void sample(double v, std::uint64_t weight = 1);

    std::uint64_t total() const { return total_; }
    std::uint64_t bucket(std::size_t i) const { return counts.at(i); }
    std::size_t buckets() const { return counts.size(); }
    double bucketWidth() const { return width; }
    std::uint64_t overflow() const { return overflow_; }

    /** Fraction of samples in bucket @p i. */
    double fraction(std::size_t i) const;

    /** Smallest value v such that >= @p q of the mass is <= v. */
    double quantile(double q) const;

  private:
    std::vector<std::uint64_t> counts;
    double width;
    std::uint64_t total_;
    std::uint64_t overflow_;
};

/** Geometric mean of a sequence of positive values. */
double geomean(const std::vector<double> &values);

} // namespace stats
} // namespace starnuma

#endif // STARNUMA_SIM_STATS_HH
