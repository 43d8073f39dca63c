// Multi-resource generalization of Algorithm 1 (paper §2.3, last
// paragraph).
//
// The paper notes that lowering several resources simultaneously makes it
// impossible to tell which one caused a failure, and points to
// multidimensional optimization as the remedy. This implementation takes
// the simplest sound approach: per estimation cycle only ONE resource
// coordinate is probed below its last-good value (round-robin across
// coordinates), so a failure unambiguously blames the probed coordinate.
// Each coordinate keeps its own learning rate α_k with the same
// restore-and-damp rule as the scalar algorithm.
//
// The class is deliberately independent of JobRecord so it can estimate
// any resource vector (memory, disk, licenses, ...); the memory-only
// experiments wrap it when needed.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/estimator.hpp"
#include "core/factory.hpp"
#include "util/resource_vector.hpp"
#include "util/types.hpp"

namespace resmatch::core {

struct MultiResourceConfig {
  double alpha = 2.0;  ///< initial per-coordinate learning rate (> 1)
  double beta = 0.0;   ///< failure damping, in [0, 1)
};

class MultiResourceEstimator {
 public:
  explicit MultiResourceEstimator(std::size_t dimensions,
                                  MultiResourceConfig config = {});

  /// Effective resource vector for the next submission of group `group`.
  /// `requested` initializes the group on first sight; its size must equal
  /// `dimensions()`. Exactly one coordinate is below its last-good value.
  [[nodiscard]] std::vector<double> estimate(
      GroupId group, const std::vector<double>& requested);

  /// Implicit feedback for the group's most recent estimate.
  void feedback(GroupId group, bool success);

  [[nodiscard]] std::size_t dimensions() const noexcept { return dims_; }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return groups_.size();
  }

  /// Last-good vector of a group, if it exists.
  [[nodiscard]] std::optional<std::vector<double>> last_good(
      GroupId group) const;

 private:
  struct GroupState {
    std::vector<double> estimate;    ///< per-coordinate E
    std::vector<double> last_good;
    std::vector<double> alpha;       ///< per-coordinate α
    std::size_t probe = 0;           ///< coordinate probed this cycle
    bool awaiting_feedback = false;
  };

  std::size_t dims_;
  MultiResourceConfig config_;
  std::unordered_map<GroupId, GroupState> groups_;
};

// ---------------------------------------------------------------------------
// VectorEstimator: per-dimension estimation over the scalar estimator zoo.
//
// Where MultiResourceEstimator (above) is the paper's round-robin probe for
// one shared similarity group, VectorEstimator is the production shape: one
// independent scalar Estimator per resource dimension (memory, CPU, GPU),
// each with its own capacity ladder and learned state, driven through the
// unmodified Estimator interface. A job's effective request is the vector
// of per-dimension estimates; feedback is routed per dimension with that
// dimension's own grant/usage/failure bit, so blame never smears across
// resources (any-dimension overrun kills the job, but only the culprit
// dimension sees resource_failure = true).
//
// Transparency contract (pinned by tests/mr_equiv_test.cpp): with dims == 1
// every call passes the JobRecord and the group handle through UNCHANGED
// to the underlying estimator's handle form, so a dims=1 VectorEstimator
// is bit-for-bit the scalar estimator it wraps. Higher dimensions see a
// shim record whose requested/used memory fields carry that dimension's
// coordinates, with that dimension's handle. The simulator relies on
// this: scalar runs are dims=1 runs over a VectorEstimator that borrows
// the caller's Estimator.
// ---------------------------------------------------------------------------

struct VectorEstimatorConfig {
  std::size_t dims = 1;  ///< in [1, kMaxResourceDims]
  /// Scalar estimator built per dimension (factory.hpp name).
  std::string estimator = "successive-approximation";
  EstimatorOptions options;
};

/// Outcome of one attempt, one coordinate per resource dimension.
struct VectorFeedback {
  bool success = false;
  ResourceVector granted{};
  /// Explicit feedback: `used` and `dim_failure` are meaningful.
  bool explicit_feedback = false;
  ResourceVector used{};
  /// Per-dimension: did THIS dimension's overrun kill the job?
  std::array<bool, kMaxResourceDims> dim_failure{};
};

class VectorEstimator {
 public:
  explicit VectorEstimator(VectorEstimatorConfig config);

  /// A dims=1 view of a caller-owned scalar estimator (not owned; must
  /// outlive this object). Every call reaches `scalar` unchanged.
  explicit VectorEstimator(Estimator& scalar);

  [[nodiscard]] const std::string& estimator_name() const noexcept {
    return config_.estimator;
  }
  [[nodiscard]] std::size_t dims() const noexcept { return config_.dims; }
  [[nodiscard]] bool requires_explicit_feedback() const;

  /// Install dimension `dim`'s capacity ladder (from
  /// sim::Cluster::ladder_for_dim).
  void set_ladder(std::size_t dim, CapacityLadder ladder);

  // The estimation calls take the job's group handles, one per dimension
  // (`groups.size() >= dims()`), each passed to that dimension's scalar
  // estimator (Estimator's `*_with` forms). The caller keeps them with the
  // job for its whole life, as GroupHandle's contract asks.

  /// Side-effect-free preview of the per-dimension effective request.
  [[nodiscard]] ResourceVector preview(const trace::JobRecord& job,
                                       const ResourceVector& requested,
                                       std::span<GroupHandle> groups,
                                       const SystemState& state) const;

  /// Commit an estimate in every dimension; pair with feedback()/cancel().
  [[nodiscard]] ResourceVector estimate(const trace::JobRecord& job,
                                        const ResourceVector& requested,
                                        std::span<GroupHandle> groups,
                                        const SystemState& state);

  /// Combined preview memo (see Estimator::preview_epoch): nullopt when
  /// any dimension declines to memoize; otherwise a hash of all
  /// per-dimension epochs, changing whenever any of them does.
  [[nodiscard]] std::optional<std::uint64_t> preview_epoch(
      const trace::JobRecord& job, const ResourceVector& requested,
      std::span<GroupHandle> groups) const;

  /// Undo the most recent estimate() when the attempt never ran.
  void cancel(const trace::JobRecord& job, const ResourceVector& requested,
              std::span<GroupHandle> groups, const ResourceVector& granted);

  /// Route per-dimension feedback to each dimension's estimator.
  void feedback(const trace::JobRecord& job, const ResourceVector& requested,
                std::span<GroupHandle> groups, const VectorFeedback& fb);

  /// Direct access to one dimension's scalar estimator (tests, metrics).
  [[nodiscard]] Estimator& dimension(std::size_t d) { return *dims_est_[d]; }

 private:
  /// JobRecord seen by dimension `d`'s estimator: unchanged for d == 0,
  /// else a copy whose memory fields carry dimension d's coordinates.
  [[nodiscard]] trace::JobRecord shim(const trace::JobRecord& job,
                                      const ResourceVector& requested,
                                      std::size_t d) const;

  VectorEstimatorConfig config_;
  std::vector<std::unique_ptr<Estimator>> owned_;
  /// Per-dimension estimators: owned_ entries, or one borrowed scalar.
  std::array<Estimator*, kMaxResourceDims> dims_est_{};
};

}  // namespace resmatch::core
