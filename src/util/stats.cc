#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pupil::util {

void
OnlineStats::add(double x)
{
    if (count_ == 0) {
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
OnlineStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

double
mean(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    const double mu = mean(xs);
    double sum = 0.0;
    for (double x : xs)
        sum += (x - mu) * (x - mu);
    return std::sqrt(sum / static_cast<double>(xs.size()));
}

double
harmonicMean(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            return 0.0;
        sum += 1.0 / x;
    }
    return static_cast<double>(xs.size()) / sum;
}

double
geometricMean(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank =
        (p / 100.0) * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = static_cast<size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

}  // namespace pupil::util
