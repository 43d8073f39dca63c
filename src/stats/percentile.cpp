#include "stats/percentile.hpp"

#include <algorithm>
#include <cmath>

namespace resmatch::stats {

void PercentileTracker::add(double x) { samples_.push_back(x); }

double PercentileTracker::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  // Order statistic `lo` by selection; everything after it is no smaller,
  // so order statistic `lo + 1` is the minimum of that upper part.
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples_.begin(), nth, samples_.end());
  const double lo_value = *nth;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(nth + 1, samples_.end());
  return lo_value + (hi_value - lo_value) * frac;
}

}  // namespace resmatch::stats
