#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace resmatch::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // xoshiro state must not be all-zero; splitmix64 seeding guarantees a
  // well-distributed nonzero state for any seed, as recommended upstream.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire's multiply-shift rejection method: unbiased and division-free
  // in the common case.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = (0ULL - range) % range;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::exponential(double rate) noexcept {
  assert(rate > 0.0);
  // -log(1-U) avoids log(0) since uniform() < 1.
  return -std::log1p(-uniform()) / rate;
}

double Rng::normal(double mean, double stddev) noexcept {
  // Box-Muller; u1 in (0,1] to keep log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::pareto(double xm, double alpha) noexcept {
  assert(xm > 0.0 && alpha > 0.0);
  return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge: fall into last bucket
}

Rng Rng::split() noexcept {
  return Rng{(*this)() ^ 0xD2B74407B1CE6E93ULL};
}

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent) {
  assert(n > 0);
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), exponent);
    cdf_[k - 1] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

std::size_t ZipfDistribution::operator()(Rng& rng) const noexcept {
  const double u = rng.uniform();
  // Binary search for the first CDF entry >= u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + 1;  // ranks are 1-based
}

}  // namespace resmatch::util
