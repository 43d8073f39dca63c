// Deterministic pseudo-random number generation.
//
// Every stochastic component in resmatch takes an explicit seed so that
// simulations are exactly reproducible across runs and platforms. We use
// xoshiro256** (public-domain, Blackman & Vigna) seeded via splitmix64,
// rather than std::mt19937, because its stream is specified independently
// of the standard library implementation and it is materially faster.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace resmatch::util {

/// splitmix64 step; used for seeding and cheap hash mixing. Inline: hash
/// tables (core::SimilarityIndex) mix on every probe.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a single value (useful for stable hashing).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  return splitmix64(x);
}

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;
  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept;
  /// Exponential with given rate (mean 1/rate). Requires rate > 0.
  [[nodiscard]] double exponential(double rate) noexcept;
  /// Standard normal via Box-Muller (no cached spare: keeps state minimal).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) noexcept;
  /// Log-normal: exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;
  /// Pareto with scale xm > 0 and shape alpha > 0.
  [[nodiscard]] double pareto(double xm, double alpha) noexcept;

  /// Index drawn from the (unnormalized, non-negative) weight vector.
  /// Requires at least one strictly positive weight.
  [[nodiscard]] std::size_t weighted_index(
      const std::vector<double>& weights) noexcept;

  /// Derive an independent child generator (stable function of parent state).
  [[nodiscard]] Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Zipf (discrete power-law) sampler over {1, ..., n} with exponent s.
/// Precomputes the CDF once; sampling is O(log n).
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double exponent);

  /// Sample a rank in [1, n].
  [[nodiscard]] std::size_t operator()(Rng& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace resmatch::util
