// Streaming descriptive statistics.
#pragma once

#include <cstddef>
#include <limits>

namespace resmatch::stats {

/// Running mean/variance/min/max via Welford's algorithm plus Kahan-
/// compensated totals. O(1) memory; numerically stable over the ~10^5-10^7
/// observations an experiment sweep produces.
class Summary {
 public:
  void add(double x) noexcept;

  /// Merge another summary (parallel-reduction friendly).
  void merge(const Summary& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept;
  /// Sample variance (n-1 denominator); 0 when fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double sum_compensation_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Kahan-compensated accumulator for long sums of small terms.
class KahanSum {
 public:
  void add(double x) noexcept;
  [[nodiscard]] double value() const noexcept { return sum_; }

 private:
  double sum_ = 0.0;
  double c_ = 0.0;
};

}  // namespace resmatch::stats
