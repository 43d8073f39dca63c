// Deterministic, seeded fault injection for the service layer.
//
// Production robustness code is only as good as the failures it has
// actually seen. The FaultInjector lets tests and benches force the
// failure paths — store file I/O, snapshot rename, WAL append/fsync/
// rotation, queue admission, worker-thread spawn — on a deterministic
// schedule: every decision is a pure function of (seed, site, per-site
// sequence number), so a failing chaos run replays bit-for-bit from its
// seed.
//
// The hook is zero-cost when disabled: call sites hold a nullable
// FaultInjector* and the inlined check is one null test. With an injector
// attached but a site unarmed (probability 0), the cost is one relaxed
// fetch_add on that site's sequence counter.
//
// `max_consecutive` bounds runs of injected failures at one site, so a
// retry loop with more attempts than the bound deterministically recovers
// — the property chaos tests rely on this to assert exact equivalence
// with a fault-free run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstddef>

namespace resmatch::util {

/// Every operation the service layer can be told to fail.
enum class FaultSite : std::size_t {
  kStoreRead = 0,      ///< snapshot open/read (svc::read_snapshot)
  kStoreWrite,         ///< snapshot write (svc::write_snapshot)
  kSnapshotRename,     ///< the atomic rename publishing a snapshot
  kWalAppend,          ///< write-ahead-log append (torn write, repaired)
  kWalFsync,           ///< fsync(2) of a WAL shard (record written, not durable)
  kWalRotate,          ///< per-shard file creation during WAL rotation
  kQueueAdmit,         ///< admission-queue push (reported as backpressure)
  kThreadSpawn,        ///< worker-thread creation
  kCount,
};

/// Per-site failure schedule.
struct FaultSpec {
  /// Probability in [0, 1] that one check at this site fails.
  double probability = 0.0;
  /// Hard cap on consecutive injected failures; once reached, the next
  /// check at this site succeeds and the run-length resets. The default
  /// (no cap) models a persistently broken dependency.
  std::uint32_t max_consecutive = UINT32_MAX;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) noexcept : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arm (or re-arm) one site. Not thread-safe against concurrent
  /// should_fail on the same site — arm before traffic.
  void arm(FaultSite site, FaultSpec spec) noexcept {
    sites_[index(site)].spec = spec;
  }

  /// Arm every site with the same spec.
  void arm_all(FaultSpec spec) noexcept {
    for (auto& s : sites_) s.spec = spec;
  }

  /// One check at `site`: deterministically decides from (seed, site,
  /// sequence number) whether this operation fails. Thread-safe; under a
  /// serial drive the decision sequence is exactly reproducible.
  [[nodiscard]] bool should_fail(FaultSite site) noexcept;

  /// Checks made / failures injected at one site so far.
  [[nodiscard]] std::uint64_t checks(FaultSite site) const noexcept {
    return sites_[index(site)].sequence.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t injected(FaultSite site) const noexcept {
    return sites_[index(site)].injected.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  struct alignas(64) Site {
    FaultSpec spec;
    std::atomic<std::uint64_t> sequence{0};
    std::atomic<std::uint64_t> injected{0};
    std::atomic<std::uint32_t> consecutive{0};
  };

  static constexpr std::size_t index(FaultSite site) noexcept {
    return static_cast<std::size_t>(site);
  }

  std::uint64_t seed_;
  std::array<Site, static_cast<std::size_t>(FaultSite::kCount)> sites_{};
};

/// The zero-cost-when-disabled hook: one null test when no injector is
/// attached, used by every instrumented call site.
[[nodiscard]] inline bool fault(FaultInjector* injector,
                                FaultSite site) noexcept {
  return injector != nullptr && injector->should_fail(site);
}

}  // namespace resmatch::util
