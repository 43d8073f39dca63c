#include "stats/summary.hpp"

#include <algorithm>

namespace resmatch::stats {

void KahanSum::add(double x) noexcept {
  const double y = x - c_;
  const double t = sum_ + y;
  c_ = (t - sum_) - y;
  sum_ = t;
}

void Summary::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  // Kahan-compensated running sum.
  const double y = x - sum_compensation_;
  const double t = sum_ + y;
  sum_compensation_ = (t - sum_) - y;
  sum_ = t;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Summary::merge(const Summary& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  mean_ += delta * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Summary::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double Summary::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

}  // namespace resmatch::stats
