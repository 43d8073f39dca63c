// Algorithm 1 of the paper: successive approximation of actual job
// requirements using implicit feedback and similarity groups.
//
// Per similarity group i the algorithm keeps the current estimate E_i
// (initialized to the first job's request R) and a learning rate α_i
// (initialized to the global α > 1):
//
//   submission:  E' = round-up-to-ladder(E_i); grant E'
//   success:     remember E_i as last-good, then E_i ← E' / α_i
//   failure:     E_i ← last-good (undo), α_i ← max(1, β·α_i)
//
// With the paper's settings (α = 2, β = 0) a failure freezes the group at
// the last estimate that worked: α collapses to 1 and E' / 1 reproduces
// the same grant forever — exactly the 32→16→8→4(fail)→8 MiB trajectory of
// the paper's Figure 7.
//
// The restore-then-damp step makes the algorithm extremely conservative:
// the paper reports at most 0.01% of executions failing from
// under-estimation while 15–40% of jobs ran with lowered requests.
//
// The per-group transition logic itself lives in core::SaGroupState
// (group_state.hpp) so the online service layer (src/svc) can run the
// identical algorithm on individually-locked group entries; this class
// adds the SimilarityIndex bookkeeping and diagnostics for the offline
// single-threaded path.
#pragma once

#include <vector>

#include "core/estimator.hpp"
#include "core/group_state.hpp"
#include "core/similarity.hpp"

namespace resmatch::core {

struct SuccessiveApproxConfig {
  double alpha = 2.0;  ///< initial per-group learning rate, must be > 1
  double beta = 0.0;   ///< failure damping of α, in [0, 1)
  /// Keep the per-group sequence of grants for diagnostics (Figure 7).
  bool record_trajectories = false;
  /// Cap on recorded trajectory length per group.
  std::size_t trajectory_cap = 256;
};

class SuccessiveApproximationEstimator final : public Estimator {
 public:
  explicit SuccessiveApproximationEstimator(
      SuccessiveApproxConfig config = {},
      SimilarityKeyFn key_fn = default_similarity_key);

  [[nodiscard]] std::string name() const override {
    return "successive-approximation";
  }

  // Each record form runs its handle form with a fresh handle, so every
  // operation has one implementation.

  [[nodiscard]] MiB estimate(const trace::JobRecord& job,
                             const SystemState& state) override;

  [[nodiscard]] MiB preview(const trace::JobRecord& job,
                            const SystemState& state) const override;

  /// Per-group memo epoch (preview ignores SystemState, so the group's
  /// Algorithm 1 state fully determines the preview). 0 = group unknown.
  [[nodiscard]] std::optional<std::uint64_t> preview_epoch(
      const trace::JobRecord& job) const override;

  void cancel(const trace::JobRecord& job, MiB granted) override;

  void feedback(const trace::JobRecord& job, const Feedback& fb) override;

  // Handle forms. An unresolved handle looks the group up (find) and is
  // filled only if the group exists; estimate and feedback create an
  // unseen group, as their record forms do, and fill the handle with it.

  [[nodiscard]] MiB estimate_with(const trace::JobRecord& job,
                                  GroupHandle& group,
                                  const SystemState& state) override;

  [[nodiscard]] MiB preview_with(const trace::JobRecord& job,
                                 GroupHandle& group,
                                 const SystemState& state) const override;

  [[nodiscard]] std::optional<std::uint64_t> preview_epoch_with(
      const trace::JobRecord& job, GroupHandle& group) const override;

  void cancel_with(const trace::JobRecord& job, GroupHandle& group,
                   MiB granted) override;

  void feedback_with(const trace::JobRecord& job, GroupHandle& group,
                     const Feedback& fb) override;

  // --- introspection ------------------------------------------------------

  [[nodiscard]] std::size_t group_count() const noexcept {
    return index_.group_count();
  }

  /// Current raw (unrounded) estimate of a job's group, if the group exists.
  [[nodiscard]] std::optional<MiB> group_estimate(
      const trace::JobRecord& job) const;

  /// Grant trajectory of a job's group (requires record_trajectories).
  [[nodiscard]] std::vector<MiB> trajectory(const trace::JobRecord& job) const;

  /// Totals across all groups, for the paper's §3.2 conservativeness claim.
  [[nodiscard]] std::size_t total_successes() const noexcept {
    return successes_;
  }
  [[nodiscard]] std::size_t total_failures() const noexcept {
    return failures_;
  }

 private:
  /// The job's group id, creating the group (Algorithm 1 line 4) if new;
  /// resolves `group`.
  GroupId group_for(const trace::JobRecord& job, GroupHandle& group);
  /// The job's group state, or nullptr when the group is unknown (which
  /// leaves `group` unresolved).
  [[nodiscard]] const SaGroupState* find_state(const trace::JobRecord& job,
                                               GroupHandle& group) const;

  SuccessiveApproxConfig config_;
  SimilarityIndex index_;
  /// Algorithm 1 state by group id: 48 bytes, the only per-group record
  /// the hot path reads.
  std::vector<SaGroupState> groups_;
  /// Recorded E' sequences by group id; filled only when
  /// record_trajectories is set.
  std::vector<std::vector<MiB>> grants_;
  std::size_t successes_ = 0;
  std::size_t failures_ = 0;
};

}  // namespace resmatch::core
