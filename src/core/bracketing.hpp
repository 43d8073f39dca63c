// Bracketing estimator: the robust-search extension the paper points to.
//
// §2.3 notes that Algorithm 1 mis-handles groups whose members use
// different amounts ("This problem can be solved using a class of robust
// line search algorithms [Anderson & Ferris]. This extension is outside
// the scope of this paper."). This class implements that extension as a
// noise-tolerant bisection in log space:
//
//   * every group maintains a bracket [lo, hi]: `lo` is the largest grant
//     observed to FAIL, `hi` the smallest grant observed to SUCCEED;
//   * the next probe is the geometric mean of the bracket, rounded to the
//     cluster ladder;
//   * a success lowers hi, a failure raises lo; when the ladder offers no
//     rung strictly inside the bracket, the group has converged to hi;
//   * failures at or above hi (noise: a higher-usage member, or a false
//     positive) WIDEN the bracket upward instead of corrupting it, which
//     is what makes the search robust where Algorithm 1's single-level
//     restore is not.
//
// Like Algorithm 1 it needs only implicit feedback and similarity groups;
// unlike Algorithm 1 it converges to the group's *maximum* usage (the
// safe capacity for every member) in O(log ladder) probes per group.
#pragma once

#include <vector>

#include "core/estimator.hpp"
#include "core/similarity.hpp"

namespace resmatch::core {

struct BracketingConfig {
  /// Stop probing when hi/lo falls below this factor (the bracket is
  /// effectively tight even if the ladder would offer another rung).
  double convergence_ratio = 1.05;
};

class BracketingEstimator final : public Estimator {
 public:
  explicit BracketingEstimator(BracketingConfig config = {},
                               SimilarityKeyFn key_fn = default_similarity_key);

  [[nodiscard]] std::string name() const override { return "bracketing"; }

  [[nodiscard]] MiB estimate(const trace::JobRecord& job,
                             const SystemState& state) override;

  [[nodiscard]] MiB preview(const trace::JobRecord& job,
                            const SystemState& state) const override;

  void cancel(const trace::JobRecord& job, MiB granted) override;

  void feedback(const trace::JobRecord& job, const Feedback& fb) override;

  [[nodiscard]] std::size_t group_count() const noexcept {
    return index_.group_count();
  }

  /// Current safe capacity (bracket top) of a job's group, if known.
  [[nodiscard]] std::optional<MiB> group_capacity(
      const trace::JobRecord& job) const;

 private:
  struct GroupState {
    MiB lo = 0.0;   ///< largest grant known insufficient (0 = none yet)
    MiB hi = 0.0;   ///< smallest grant believed sufficient
    bool hi_confirmed = false;  ///< hi actually ran a job successfully
    bool probe_outstanding = false;
    MiB probe_grant = 0.0;
  };

  GroupState& state_for(const trace::JobRecord& job);

  /// The next grant the group would try (bracket midpoint on the ladder),
  /// or hi when converged. Pure.
  [[nodiscard]] MiB next_probe(const GroupState& g,
                               const trace::JobRecord& job) const;

  BracketingConfig config_;
  SimilarityIndex index_;
  std::vector<GroupState> groups_;
};

}  // namespace resmatch::core
