// Re-entrant per-similarity-group estimator state.
//
// The estimator classes in this directory were written for the offline
// simulator: one estimator instance owns the state of every group behind a
// SimilarityIndex. The online service layer (src/svc) instead stores one
// state object per group in a shard-striped concurrent store, so the
// Algorithm 1 / last-instance transition logic must be callable on a
// single group's state with no reference to the owning estimator. These
// structs carry exactly that logic; the estimator classes delegate to them
// so the offline and online paths cannot drift apart (the service's
// 1-worker determinism contract depends on it).
//
// Each state is also a value type with a flat numeric wire form
// (to_fields/from_fields) so svc::EstimatorStore can snapshot and restore
// it for warm restarts.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/capacity_ladder.hpp"
#include "core/estimator.hpp"

namespace resmatch::core {

/// Algorithm 1 state of one similarity group (paper §2.3): the current
/// estimate E_i, the last capacity that ran a job successfully, the
/// per-group learning rate alpha_i, and the probe-serialization slot (at
/// most one in-flight grant below the proven capacity; see
/// successive_approximation.hpp for the rationale).
struct SaGroupState {
  MiB estimate = 0.0;   ///< E_i (raw, unrounded)
  MiB last_good = 0.0;  ///< capacity restored on failure (grant space)
  double alpha = 2.0;   ///< alpha_i
  bool probe_outstanding = false;
  MiB probe_grant = 0.0;
  /// Preview-memoization epoch (Estimator::preview_epoch): bumped by every
  /// commit/cancel/apply_feedback so cached previews invalidate. Starts at
  /// 1 so a live group is always distinguishable from "group unknown"
  /// (epoch 0). Deliberately NOT serialized by to_fields()/from_fields():
  /// it is cache-coherency state, not algorithm state, and memos must not
  /// survive a snapshot/restore cycle.
  std::uint64_t epoch = 1;

  /// Algorithm 1 line 4: E_i <- R, alpha_i <- alpha.
  [[nodiscard]] static SaGroupState fresh(MiB requested_mib,
                                          double alpha0) noexcept;

  /// What commit() would grant, without claiming the probe slot.
  [[nodiscard]] MiB preview(const CapacityLadder& ladder) const noexcept;

  /// One submission (Algorithm 1 line 6): round E_i up to the ladder and
  /// grant it, claiming the probe slot when the grant is an experiment
  /// below the proven capacity. Pair with apply_feedback() or cancel().
  [[nodiscard]] MiB commit(const CapacityLadder& ladder) noexcept;

  /// Undo a commit() whose attempt never ran.
  void cancel(MiB granted) noexcept;

  /// Algorithm 1 lines 8-13 plus the safe-grant escalation documented in
  /// successive_approximation.cpp. Returns fb.success for callers keeping
  /// aggregate counters.
  bool apply_feedback(const Feedback& fb, MiB requested_mib,
                      const CapacityLadder& ladder, double beta) noexcept;

  /// The invariants every trajectory must satisfy regardless of the
  /// interleaving of submissions and feedback: alpha_i >= 1 and the
  /// estimate never above the proven capacity (it only moves down between
  /// failures). The concurrent hammer tests assert this per group.
  [[nodiscard]] bool invariants_hold() const noexcept;

  // --- snapshot codec (svc::EstimatorStore) -------------------------------
  static constexpr const char* kKind = "successive-approximation";
  /// Fixed-size, so the WAL append on the batch worker allocates nothing.
  [[nodiscard]] std::array<double, 5> to_fields() const;
  [[nodiscard]] static std::optional<SaGroupState> from_fields(
      const std::vector<double>& fields);
};

/// Last-instance state of one similarity group (paper §2.3, explicit
/// feedback): the sliding window of recent observed usages and the
/// poisoned flag raised by an unexplained resource failure.
struct LiGroupState {
  std::deque<MiB> recent_usage;  ///< up to `window` most recent usages
  bool poisoned = false;
  /// Preview-memoization epoch (see SaGroupState::epoch): bumped by
  /// apply_feedback, starts at 1, not serialized.
  std::uint64_t epoch = 1;

  /// Estimate for the next submission: max of the window times the margin,
  /// capped at the request, rounded up to the ladder. Empty or poisoned
  /// history passes the request through.
  [[nodiscard]] MiB current_estimate(MiB requested_mib,
                                     const CapacityLadder& ladder,
                                     double margin) const;

  /// Fold one outcome into the window (see last_instance.cpp).
  void apply_feedback(const Feedback& fb, std::size_t window);

  // --- snapshot codec (svc::EstimatorStore) -------------------------------
  static constexpr const char* kKind = "last-instance";
  [[nodiscard]] std::vector<double> to_fields() const;
  [[nodiscard]] static std::optional<LiGroupState> from_fields(
      const std::vector<double>& fields);
};

}  // namespace resmatch::core
