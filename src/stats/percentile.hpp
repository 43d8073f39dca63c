// Exact percentiles over collected samples.
#pragma once

#include <vector>

namespace resmatch::stats {

/// Collects samples and answers percentile queries exactly by selection:
/// each query is an O(n) std::nth_element over the samples, not a sort. A
/// simulation asks once (p95 slowdown) over up to one sample per job.
class PercentileTracker {
 public:
  void add(double x);
  void reserve(std::size_t n);

  /// Percentile in [0, 100] using linear interpolation between order
  /// statistics. Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

 private:
  /// Queries reorder the samples in place; the multiset never changes.
  mutable std::vector<double> samples_;
};

}  // namespace resmatch::stats
