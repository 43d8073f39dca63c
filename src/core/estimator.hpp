// The resource-estimator interface (paper §1.3, Figure 2).
//
// The estimator sits between job submission and resource allocation: it
// rewrites the job's requested capacity into an (ideally smaller) effective
// request, and learns from per-execution feedback. It is deliberately
// independent of the scheduling policy and the allocation scheme — any
// Estimator composes with any sched::SchedulingPolicy.
//
// Feedback comes in two flavours (paper §2.1):
//   * implicit — only whether the job completed successfully;
//   * explicit — additionally the actual resources the job used, and
//     whether a failure was actually caused by insufficient resources
//     (ruling out the false positives that plague implicit feedback).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/capacity_ladder.hpp"
#include "trace/job_record.hpp"

namespace resmatch::core {

/// Cluster-wide conditions at estimation time; consumed by estimators that
/// learn global policies (the RL quadrant of Table 1). Group-based
/// estimators ignore it.
struct SystemState {
  Seconds now = 0.0;
  double busy_fraction = 0.0;   ///< busy machines / total machines
  std::size_t queue_length = 0;
};

/// Outcome of one execution attempt, reported back to the estimator.
struct Feedback {
  bool success = false;
  /// Memory capacity the job was granted per node (the estimator's own
  /// rounded output, echoed back).
  MiB granted_mib = 0.0;
  /// Explicit feedback only: the actual peak memory used per node.
  std::optional<MiB> used_mib;
  /// Explicit feedback only: whether a failure was due to insufficient
  /// resources (as opposed to program/machine faults). Under implicit
  /// feedback this is unknown and estimators must assume the worst.
  std::optional<bool> resource_failure;
};

/// Introspection snapshot of a learned-model estimator (quantile,
/// ensemble): feeds the resmatch_estimator_* metrics and the estimator
/// shoot-out's coverage column.
struct ModelStats {
  /// Prequential (held-out) coverage: fraction of recent observations the
  /// model's raw prediction covered, evaluated BEFORE training on each.
  double coverage = 0.0;
  /// Current multiplicative safety margin over the raw prediction.
  double margin = 1.0;
  /// Labeled observations the model has trained on.
  std::uint64_t observations = 0;
  /// Ensemble only: similarity groups currently served by the model.
  std::uint64_t groups_model = 0;
  /// Ensemble only: groups stuck on successive approximation after
  /// sustained mispredictions.
  std::uint64_t groups_fallback = 0;
};

/// A caller-held reference to one job's similarity group inside one
/// estimator: a 32-bit group id, unresolved by default. A job's group is a
/// function of fields the job never changes (paper §2.2), so once it is
/// known the estimator can read the group's state by index instead of
/// recomputing the key and probing its index on every call.
///
/// The contract, for callers of the `*_with` forms below:
///   * Caller-owned. Keep one handle per job and estimator (a
///     VectorEstimator needs one per dimension), pass that same handle to
///     every call for the job, and start each new job with a fresh one. A
///     handle is meaningless to any other estimator or job.
///   * Lazy. The estimator fills the handle the first time a call finds
///     the job's group in existence; until then every call looks the group
///     up again.
///   * Never a reason to create a group. A preview, epoch read or cancel
///     of an unseen group leaves the handle unresolved and creates
///     nothing; estimate and feedback create the group exactly where their
///     record forms do, and resolve the handle with it. So holding a
///     handle moves no group's birth, and E_i still starts at the request
///     of the job whose estimate created the group (Algorithm 1 line 4).
/// Group-less estimators ignore the handle.
class GroupHandle {
 public:
  [[nodiscard]] bool resolved() const noexcept { return id_ != kUnresolved; }

  /// The group id; only meaningful when resolved().
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  /// Record the job's group. A group id that does not fit in 32 bits is
  /// an error (std::overflow_error), never a truncation.
  void resolve(GroupId group) {
    if (group >= kUnresolved) {
      throw std::overflow_error("GroupHandle: group id exceeds 32 bits");
    }
    id_ = static_cast<std::uint32_t>(group);
  }

 private:
  static constexpr std::uint32_t kUnresolved = kInvalidId32;
  std::uint32_t id_ = kUnresolved;
};

/// Base class for all resource estimators.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Stable identifier for reports ("successive-approximation", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Effective per-node memory request for this execution attempt.
  /// Implementations round to the capacity ladder where their algorithm
  /// calls for it. The returned value is also the capacity the job will be
  /// *granted*. Estimate COMMITS internal state (a probe slot, an RL
  /// action): call it exactly once per attempt, when the job is actually
  /// dispatched, and pair it with feedback() or cancel().
  [[nodiscard]] virtual MiB estimate(const trace::JobRecord& job,
                                     const SystemState& state) = 0;

  /// What estimate() would currently return, WITHOUT committing anything.
  /// Schedulers use previews for queue ordering and fit checks; previews
  /// may go stale and need not match the later committed estimate exactly.
  [[nodiscard]] virtual MiB preview(const trace::JobRecord& job,
                                    const SystemState& state) const = 0;

  /// Memoization contract for preview() (simulator hot path): when two
  /// calls for the same job return the same epoch, preview() is
  /// guaranteed to return the same value in between — independent of
  /// SystemState — so callers may reuse a cached preview instead of
  /// recomputing. Epochs are monotone per similarity group and bump on
  /// anything that could change the preview (estimate commits, feedback,
  /// cancel, group creation). The default returns nullopt = no guarantee:
  /// callers must re-call preview() every time. Estimators whose preview
  /// depends on SystemState or hidden mutable state (RL, regression) must
  /// keep that default.
  [[nodiscard]] virtual std::optional<std::uint64_t> preview_epoch(
      const trace::JobRecord& job) const {
    (void)job;
    return std::nullopt;
  }

  /// Undo the state committed by the most recent estimate() for `job`
  /// when the attempt never ran (e.g., the grant no longer fits the
  /// cluster). Default: nothing to undo.
  virtual void cancel(const trace::JobRecord& job, MiB granted) {
    (void)job;
    (void)granted;
  }

  /// Report the outcome of the most recent attempt of `job`.
  virtual void feedback(const trace::JobRecord& job, const Feedback& fb) = 0;

  // --- group-handle forms (simulator hot path) ---------------------------
  //
  // The five operations above, given the caller's GroupHandle for `job`
  // (see GroupHandle for the contract). Each returns what its record form
  // returns and leaves the same state behind; a group estimator overrides
  // them to skip the key and the index probe once the handle is resolved.
  // The defaults ignore the handle and call the record form, so estimators
  // without groups, and wrappers that override only the record forms,
  // behave exactly as before. They have names of their own rather than
  // overloading the record forms, so overriding one never hides the other.

  [[nodiscard]] virtual MiB estimate_with(const trace::JobRecord& job,
                                          GroupHandle& group,
                                          const SystemState& state) {
    (void)group;
    return estimate(job, state);
  }

  [[nodiscard]] virtual MiB preview_with(const trace::JobRecord& job,
                                         GroupHandle& group,
                                         const SystemState& state) const {
    (void)group;
    return preview(job, state);
  }

  [[nodiscard]] virtual std::optional<std::uint64_t> preview_epoch_with(
      const trace::JobRecord& job, GroupHandle& group) const {
    (void)group;
    return preview_epoch(job);
  }

  virtual void cancel_with(const trace::JobRecord& job, GroupHandle& group,
                           MiB granted) {
    (void)group;
    cancel(job, granted);
  }

  virtual void feedback_with(const trace::JobRecord& job, GroupHandle& group,
                             const Feedback& fb) {
    (void)group;
    feedback(job, fb);
  }

  /// Serialize the estimator's learned state as a flat numeric blob for
  /// durable storage (snapshot rows / WAL frames). The blob is opaque to
  /// the storage layer; load_state() of the same estimator type must accept
  /// it and reproduce byte-identical subsequent decisions. Default: empty —
  /// stateless estimators and those whose state already lives in the group
  /// store have nothing extra to persist.
  [[nodiscard]] virtual std::vector<double> save_state() const { return {}; }

  /// Restore state produced by save_state() on a same-configured instance.
  /// Returns false (leaving the estimator untouched) when the blob does not
  /// match; default accepts only the empty blob.
  [[nodiscard]] virtual bool load_state(const std::vector<double>& state) {
    return state.empty();
  }

  /// Learned-model introspection for metrics and benchmarks; nullopt for
  /// estimators without a trained model.
  [[nodiscard]] virtual std::optional<ModelStats> model_stats() const {
    return std::nullopt;
  }

  /// Install the target cluster's capacity ladder. Called once before
  /// simulation; default retains it for subclasses.
  virtual void set_ladder(CapacityLadder ladder) { ladder_ = std::move(ladder); }

  [[nodiscard]] const CapacityLadder& ladder() const noexcept {
    return ladder_;
  }

 protected:
  CapacityLadder ladder_;
};

/// Baseline: pass the user's request through untouched (the "without
/// estimation" arm of every experiment).
class NoEstimator final : public Estimator {
 public:
  [[nodiscard]] std::string name() const override { return "none"; }

  [[nodiscard]] MiB estimate(const trace::JobRecord& job,
                             const SystemState& /*state*/) override {
    // Round up so the grant names an actual machine capacity; with request
    // >= usage this never changes which machines qualify.
    return ladder_.round_up(job.requested_mem_mib);
  }

  [[nodiscard]] MiB preview(const trace::JobRecord& job,
                            const SystemState& /*state*/) const override {
    return ladder_.round_up(job.requested_mem_mib);
  }

  /// The preview depends only on the job's request and the fixed ladder,
  /// so it is never stale: one constant epoch.
  [[nodiscard]] std::optional<std::uint64_t> preview_epoch(
      const trace::JobRecord& /*job*/) const override {
    return 0;
  }

  void feedback(const trace::JobRecord& /*job*/,
                const Feedback& /*fb*/) override {}
};

}  // namespace resmatch::core
