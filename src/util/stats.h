#ifndef PUPIL_UTIL_STATS_H_
#define PUPIL_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace pupil::util {

/**
 * Streaming mean/variance accumulator (Welford's algorithm).
 *
 * Numerically stable for long runs; used by sensors and the settling-time
 * detector to summarize measurement windows.
 */
class OnlineStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations so far. */
    size_t count() const { return count_; }

    /** Arithmetic mean; 0 if empty. */
    double mean() const { return count_ > 0 ? mean_ : 0.0; }

    /** Population variance; 0 if fewer than 2 observations. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest observation; +inf if empty. */
    double min() const { return min_; }

    /** Largest observation; -inf if empty. */
    double max() const { return max_; }

  private:
    size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_;
    double max_;
};

/** Arithmetic mean of a vector; 0 if empty. */
double mean(const std::vector<double>& xs);

/** Population standard deviation of a vector; 0 if empty. */
double stddev(const std::vector<double>& xs);

/**
 * Harmonic mean of a vector; 0 if empty or if any element is <= 0.
 *
 * This is the summary statistic the paper uses for Table 3 ("Comparison of
 * Harmonic Mean Performance").
 */
double harmonicMean(const std::vector<double>& xs);

/** Geometric mean of a vector of positive values; 0 if empty. */
double geometricMean(const std::vector<double>& xs);

/**
 * Linear-interpolated percentile, p in [0, 100]. Sorts a copy of the input.
 * Returns 0 if empty.
 */
double percentile(std::vector<double> xs, double p);

}  // namespace pupil::util

#endif  // PUPIL_UTIL_STATS_H_
