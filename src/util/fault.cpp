#include "util/fault.hpp"

#include "util/rng.hpp"

namespace resmatch::util {

bool FaultInjector::should_fail(FaultSite site) noexcept {
  Site& s = sites_[index(site)];
  const std::uint64_t seq =
      s.sequence.fetch_add(1, std::memory_order_relaxed);
  const double p = s.spec.probability;
  if (p <= 0.0) return false;

  // Decision = pure function of (seed, site, sequence): mix them into one
  // word and compare the top 53 bits against the probability threshold.
  const std::uint64_t h =
      mix64(seed_ ^ mix64(static_cast<std::uint64_t>(index(site)) * 0x9E3779B97F4A7C15ULL + seq));
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
  bool fail = p >= 1.0 || u < p;

  if (fail) {
    // Bound the failure run-length so bounded retry loops deterministically
    // recover. fetch_add-then-check keeps this thread-safe; a race can only
    // end a run one failure early, never extend it past the cap.
    const std::uint32_t run =
        s.consecutive.fetch_add(1, std::memory_order_relaxed) + 1;
    if (run > s.spec.max_consecutive) {
      s.consecutive.store(0, std::memory_order_relaxed);
      fail = false;
    }
  }
  if (fail) {
    s.injected.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.consecutive.store(0, std::memory_order_relaxed);
  }
  return fail;
}

}  // namespace resmatch::util
