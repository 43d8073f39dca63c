// Unit tests for the stats substrate: summaries, histograms, regression,
// percentiles — including the numeric building blocks behind the paper's
// Figure 1 (log-linear fit, fraction >= 2x) and §3.2 (R² = 0.991 fit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/percentile.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace resmatch::stats {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, SingleSampleVarianceZero) {
  Summary s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(Summary, MergeEqualsSequential) {
  Summary all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i < 50 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(KahanSum, CompensatesSmallTerms) {
  KahanSum k;
  k.add(1e16);
  for (int i = 0; i < 10000; ++i) k.add(1.0);
  EXPECT_DOUBLE_EQ(k.value(), 1e16 + 10000.0);
}

TEST(LinearHistogram, BinsAndEdges) {
  LinearHistogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(2.0);
  h.add(9.9);
  const auto bins = h.bins();
  ASSERT_EQ(bins.size(), 5u);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_EQ(bins[1].count, 1u);
  EXPECT_EQ(bins[4].count, 1u);
  EXPECT_DOUBLE_EQ(bins[0].lower, 0.0);
  EXPECT_DOUBLE_EQ(bins[4].upper, 10.0);
  EXPECT_EQ(h.total(), 3u);
}

TEST(LinearHistogram, ClampsOutOfRange) {
  LinearHistogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(100.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 2u);
  const auto bins = h.bins();
  EXPECT_EQ(bins.front().count, 1u);
  EXPECT_EQ(bins.back().count, 1u);
}

TEST(LinearHistogram, FractionAtLeast) {
  LinearHistogram h(1.0, 11.0, 10);  // unit bins 1..11
  for (double x : {1.5, 2.5, 3.5, 4.5}) h.add(x);
  EXPECT_DOUBLE_EQ(h.fraction_at_least(2.0), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction_at_least(1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_at_least(5.0), 0.0);
}

TEST(LinearHistogram, FractionAtLeastCountsOverflowOnce) {
  LinearHistogram h(1.0, 5.0, 4);
  h.add(100.0);  // overflow -> folded into last bin
  h.add(1.5);
  EXPECT_DOUBLE_EQ(h.fraction_at_least(2.0), 0.5);
}

TEST(LogHistogram, GeometricEdges) {
  LogHistogram h(1.0, 2.0, 4);  // [1,2) [2,4) [4,8) [8,16)
  h.add(1.5);
  h.add(3.0);
  h.add(6.0);
  h.add(12.0);
  const auto bins = h.bins();
  for (const auto& bin : bins) EXPECT_EQ(bin.count, 1u);
  EXPECT_DOUBLE_EQ(bins[2].lower, 4.0);
  EXPECT_DOUBLE_EQ(bins[2].upper, 8.0);
}

TEST(LogHistogram, ClampsBelowAndAbove) {
  LogHistogram h(1.0, 2.0, 3);
  h.add(0.1);
  h.add(1000.0);
  const auto bins = h.bins();
  EXPECT_EQ(bins.front().count, 1u);
  EXPECT_EQ(bins.back().count, 1u);
}

TEST(IntegerFrequency, SortedItems) {
  IntegerFrequency f;
  f.add(3);
  f.add(1);
  f.add(3);
  const auto items = f.items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first, 1);
  EXPECT_EQ(items[0].second, 1u);
  EXPECT_EQ(items[1].first, 3);
  EXPECT_EQ(items[1].second, 2u);
  EXPECT_EQ(f.total(), 3u);
}

TEST(FitLinear, ExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_TRUE(fit.valid);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLinear, NoisyLineHasSubUnityR2) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(1.0 + 0.5 * i + ((i % 2 == 0) ? 2.0 : -2.0));
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 0.5, 0.05);
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_GT(fit.r_squared, 0.8);
}

TEST(FitLinear, DegenerateInputs) {
  // Fewer than two points, or no x variance: no line exists, valid=false.
  EXPECT_EQ(fit_linear({}, {}).n, 0u);
  EXPECT_FALSE(fit_linear({}, {}).valid);
  EXPECT_EQ(fit_linear({1.0}, {2.0}).n, 1u);
  EXPECT_FALSE(fit_linear({1.0}, {2.0}).valid);
  // Vertical data: all x equal.
  const LinearFit fit = fit_linear({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0});
  EXPECT_FALSE(fit.valid);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(FitLinear, ConstantYIsNotAPerfectFit) {
  // Regression: syy == 0 used to report R^2 = 1.0, so a flat utilization
  // curve claimed "perfect correlation" in fig8. Constant y carries no
  // variance to explain — R^2 is 0 by convention, and the horizontal fit
  // itself stays valid.
  const LinearFit fit = fit_linear({1.0, 2.0, 3.0}, {5.0, 5.0, 5.0});
  EXPECT_TRUE(fit.valid);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(fit.r_squared, 0.0);
}

TEST(RidgeRegression, RecoversLinearModel) {
  RidgeRegression model(2, 1e-9);
  // y = 2*x0 - 3*x1 + 4
  for (int i = 0; i < 100; ++i) {
    const double x0 = std::sin(i * 0.7) * 5;
    const double x1 = std::cos(i * 1.3) * 2;
    model.add({x0, x1}, 2 * x0 - 3 * x1 + 4);
  }
  ASSERT_TRUE(model.fit());
  EXPECT_NEAR(model.predict({1.0, 1.0}), 3.0, 1e-6);
  EXPECT_NEAR(model.predict({0.0, 0.0}), 4.0, 1e-6);
  EXPECT_EQ(model.observations(), 100u);
}

TEST(RidgeRegression, FailsWithNoData) {
  RidgeRegression model(2);
  EXPECT_FALSE(model.fit());
}

TEST(RidgeRegression, DampingHandlesCollinearFeatures) {
  RidgeRegression model(2, 1e-3);
  // x1 is an exact copy of x0: XtX is singular without damping.
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.1;
    model.add({x, x}, 3 * x);
  }
  ASSERT_TRUE(model.fit());
  EXPECT_NEAR(model.predict({1.0, 1.0}), 3.0, 0.05);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  PercentileTracker p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(p.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(p.percentile(95), 95.05, 1e-9);
}

TEST(Percentile, EmptyReturnsZero) {
  PercentileTracker p;
  EXPECT_DOUBLE_EQ(p.percentile(50), 0.0);
}

TEST(Percentile, AddAfterQueryResorts) {
  PercentileTracker p;
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.median(), 10.0);
  p.add(0.0);
  p.add(20.0);
  EXPECT_DOUBLE_EQ(p.median(), 10.0);
  EXPECT_DOUBLE_EQ(p.percentile(0), 0.0);
}

/// The tracker's definition, computed on a fully sorted copy.
double sorted_percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

TEST(Percentile, SelectionMatchesSortedReferenceBitForBit) {
  // Selection must return the very order statistics a sort would, so the
  // simulator's p95 slowdown (and every digest over it) cannot move.
  const double kPs[] = {0.0, 1.0, 50.0, 95.0, 99.9, 100.0};
  util::Rng rng(2024);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 100u, 1001u, 20000u}) {
    PercentileTracker tracker;
    std::vector<double> reference;
    auto add = [&](double x) {
      tracker.add(x);
      reference.push_back(x);
    };
    auto check_all = [&] {
      for (const double p : kPs) {
        EXPECT_EQ(tracker.percentile(p), sorted_percentile(reference, p))
            << "n=" << reference.size() << " p=" << p;
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      // Half the draws from a small integer range, so ties are common.
      add(rng.bernoulli(0.5) ? static_cast<double>(rng.uniform_int(0, 9))
                             : rng.lognormal(0.0, 2.0));
    }
    check_all();
    check_all();  // repeated queries see the reordered samples
    for (auto it = std::rbegin(kPs); it != std::rend(kPs); ++it) {
      EXPECT_EQ(tracker.percentile(*it), sorted_percentile(reference, *it));
    }
    // Adds between queries, ties with existing samples included.
    for (std::size_t i = 0; i < 5; ++i) {
      add(reference[rng.uniform_int(0, static_cast<std::int64_t>(
                                           reference.size() - 1))]);
      add(rng.uniform(-1.0, 1.0));
      EXPECT_EQ(tracker.percentile(95.0), sorted_percentile(reference, 95.0));
    }
    check_all();
    EXPECT_EQ(tracker.count(), reference.size());
  }
}

}  // namespace
}  // namespace resmatch::stats
