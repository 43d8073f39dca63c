// Tests for the Table 1 estimators, including a step-by-step replay of the
// paper's Figure 7 trajectory for Algorithm 1.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/ensemble_estimator.hpp"
#include "core/factory.hpp"
#include "core/key_search.hpp"
#include "core/last_instance.hpp"
#include "core/quantile_estimator.hpp"
#include "core/regression_estimator.hpp"
#include "core/rl_estimator.hpp"
#include "core/successive_approximation.hpp"
#include "util/rng.hpp"

namespace resmatch::core {
namespace {

trace::JobRecord make_job(MiB req, MiB used, UserId user = 1, AppId app = 1,
                          JobId id = 1) {
  trace::JobRecord j;
  j.id = id;
  j.requested_mem_mib = req;
  j.used_mem_mib = used;
  j.user = user;
  j.app = app;
  j.nodes = 32;
  j.runtime = 100;
  j.requested_time = 200;
  return j;
}

/// Drive one submission cycle against ground-truth usage with memory-limit
/// semantics (success iff grant >= used); returns the grant.
MiB submit_cycle(Estimator& est, const trace::JobRecord& job,
                 bool explicit_feedback = false) {
  const MiB grant = est.estimate(job, SystemState{});
  Feedback fb;
  fb.success = grant + 1e-9 >= job.used_mem_mib;
  fb.granted_mib = grant;
  if (explicit_feedback) {
    fb.used_mib = job.used_mem_mib;
    fb.resource_failure = !fb.success;
  }
  est.feedback(job, fb);
  return grant;
}

// --- NoEstimator -----------------------------------------------------------

TEST(NoEstimator, PassesRequestThrough) {
  NoEstimator est;
  est.set_ladder(CapacityLadder({8.0, 24.0, 32.0}));
  EXPECT_DOUBLE_EQ(est.estimate(make_job(32, 5), {}), 32.0);
  // Rounds to an actual capacity.
  EXPECT_DOUBLE_EQ(est.estimate(make_job(20, 5), {}), 24.0);
}

// --- SuccessiveApproximationEstimator ---------------------------------------

TEST(SuccessiveApprox, Figure7Trajectory) {
  // Paper Figure 7: request 32 MiB, actual usage slightly above 5 MiB,
  // alpha = 2, beta = 0, power-of-two capacity ladder. The grant sequence
  // is 32, 16, 8, 4 (fails: 4 < 5.2), then 8 forever.
  SuccessiveApproxConfig cfg;
  cfg.alpha = 2.0;
  cfg.beta = 0.0;
  cfg.record_trajectories = true;
  SuccessiveApproximationEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));

  const auto job = make_job(32.0, 5.2);
  std::vector<MiB> grants;
  for (int i = 0; i < 7; ++i) grants.push_back(submit_cycle(est, job));

  const std::vector<MiB> expected = {32, 16, 8, 4, 8, 8, 8};
  ASSERT_EQ(grants.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(grants[i], expected[i]) << "cycle " << i;
  }
  EXPECT_EQ(est.trajectory(job), grants);
  EXPECT_EQ(est.total_failures(), 1u);
  EXPECT_EQ(est.total_successes(), 6u);
}

TEST(SuccessiveApprox, PaperSection23LadderStall) {
  // Paper §2.3: request 32, usage 4, machines {32, 24, 4}, alpha = 2:
  // grants go 32 -> 24 (E = 16 rounds up) -> ... the estimate ping-pongs
  // E = 24/2 = 12 -> E' = 24, never reaching the 4 MiB machines. This is
  // the documented alpha-too-low phenomenon.
  SuccessiveApproxConfig cfg;
  cfg.alpha = 2.0;
  SuccessiveApproximationEstimator est(cfg);
  est.set_ladder(CapacityLadder({4, 24, 32}));
  const auto job = make_job(32.0, 4.0);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 32.0);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 24.0);  // E = 16 -> rounds to 24
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 24.0);  // E = 12 -> rounds to 24
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 24.0);  // stuck, as the paper says
}

TEST(SuccessiveApprox, HigherAlphaReachesSmallMachines) {
  // Same scenario with alpha = 10 (paper §2.3): 32 -> 4 in one step.
  SuccessiveApproxConfig cfg;
  cfg.alpha = 10.0;
  SuccessiveApproximationEstimator est(cfg);
  est.set_ladder(CapacityLadder({4, 24, 32}));
  const auto job = make_job(32.0, 4.0);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 32.0);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 4.0);  // E = 3.2 -> rounds to 4
}

TEST(SuccessiveApprox, BetaEnablesFinerDescent) {
  // With beta = 0.5 a failure halves alpha instead of freezing: after
  // failing at 4 the estimator retries at 8/sqrt-ish granularity.
  SuccessiveApproxConfig cfg;
  cfg.alpha = 4.0;
  cfg.beta = 0.5;
  SuccessiveApproximationEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  const auto job = make_job(32.0, 5.2);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 32.0);  // E -> 8
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 8.0);   // E -> 2
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 2.0);   // fails, alpha -> 2, E -> 8
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 8.0);   // E -> 4
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 4.0);   // fails, alpha -> 1, E -> 8
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 8.0);   // frozen at 8 (alpha = 1)
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 8.0);
}

TEST(SuccessiveApprox, GroupsLearnIndependently) {
  SuccessiveApproximationEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  const auto a = make_job(32.0, 5.2, /*user=*/1);
  const auto b = make_job(32.0, 20.0, /*user=*/2);
  (void)submit_cycle(est, a);
  (void)submit_cycle(est, a);
  // Group b starts fresh despite a's progress.
  EXPECT_DOUBLE_EQ(submit_cycle(est, b), 32.0);
  EXPECT_EQ(est.group_count(), 2u);
}

TEST(SuccessiveApprox, NeverEstimatesBelowFrozenFloor) {
  // Once alpha hits 1 (beta = 0, one failure) the estimate is pinned; no
  // amount of further successes lowers it.
  SuccessiveApproximationEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  const auto job = make_job(32.0, 5.2);
  for (int i = 0; i < 20; ++i) (void)submit_cycle(est, job);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 8.0);
}

TEST(SuccessiveApprox, EmptyLadderUsesRawEstimates) {
  // Without a ladder (standalone mode) the estimate halves freely: the
  // Figure 7 sequence without rounding.
  SuccessiveApproximationEstimator est;
  const auto job = make_job(32.0, 5.2);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 32.0);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 16.0);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 8.0);
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 4.0);   // fails
  EXPECT_DOUBLE_EQ(submit_cycle(est, job), 8.0);   // restored
}

TEST(SuccessiveApprox, GroupEstimateIntrospection) {
  SuccessiveApproximationEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  const auto job = make_job(32.0, 5.2);
  EXPECT_FALSE(est.group_estimate(job).has_value());
  (void)submit_cycle(est, job);
  ASSERT_TRUE(est.group_estimate(job).has_value());
  EXPECT_DOUBLE_EQ(*est.group_estimate(job), 16.0);
}

TEST(SuccessiveApprox, RejectsInvalidParameters) {
#ifndef NDEBUG
  SuccessiveApproxConfig bad;
  bad.alpha = 0.5;  // must be > 1
  EXPECT_DEATH(SuccessiveApproximationEstimator{bad}, "alpha");
#else
  GTEST_SKIP() << "assertions disabled in release build";
#endif
}

// --- LastInstanceEstimator ---------------------------------------------------

TEST(LastInstance, FirstSubmissionUsesRequest) {
  LastInstanceEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  EXPECT_DOUBLE_EQ(est.estimate(make_job(32, 5), {}), 32.0);
}

TEST(LastInstance, SecondSubmissionUsesObservedUsage) {
  LastInstanceEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  const auto job = make_job(32.0, 5.0);
  (void)submit_cycle(est, job, /*explicit_feedback=*/true);
  // 5 MiB usage rounds up to the 8 MiB rung.
  EXPECT_DOUBLE_EQ(est.estimate(job, {}), 8.0);
}

TEST(LastInstance, TracksDriftingUsage) {
  LastInstanceEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  auto job = make_job(32.0, 5.0);
  (void)submit_cycle(est, job, true);
  job.used_mem_mib = 13.0;  // usage grew
  (void)submit_cycle(est, job, true);  // grant 8 < 13: resource failure
  // The failed run still reported its usage; the estimator clears the bar.
  EXPECT_DOUBLE_EQ(est.estimate(job, {}), 16.0);
}

TEST(LastInstance, WindowTakesMaxOfRecent) {
  LastInstanceConfig cfg;
  cfg.window = 3;
  LastInstanceEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  auto job = make_job(32.0, 3.0);
  (void)submit_cycle(est, job, true);
  job.used_mem_mib = 7.0;
  (void)submit_cycle(est, job, true);
  job.used_mem_mib = 2.0;
  (void)submit_cycle(est, job, true);
  // Window holds {3, 7, 2}; max 7 rounds to 8.
  EXPECT_DOUBLE_EQ(est.estimate(job, {}), 8.0);
}

TEST(LastInstance, MarginAddsHeadroom) {
  LastInstanceConfig cfg;
  cfg.margin = 1.5;
  LastInstanceEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 6, 8, 16, 32}));
  const auto job = make_job(32.0, 5.0);
  (void)submit_cycle(est, job, true);
  // 5 * 1.5 = 7.5 -> rounds to 8.
  EXPECT_DOUBLE_EQ(est.estimate(job, {}), 8.0);
}

TEST(LastInstance, EstimateNeverExceedsRequest) {
  LastInstanceConfig cfg;
  cfg.margin = 4.0;
  LastInstanceEstimator est(cfg);
  est.set_ladder(CapacityLadder({8, 16, 32}));
  const auto job = make_job(16.0, 12.0);
  (void)submit_cycle(est, job, true);
  // 12 * 4 = 48 clamps to the 16 MiB request.
  EXPECT_DOUBLE_EQ(est.estimate(job, {}), 16.0);
}

TEST(LastInstance, NonResourceFailureKeepsHistory) {
  LastInstanceEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  const auto job = make_job(32.0, 5.0);
  (void)submit_cycle(est, job, true);
  Feedback fb;
  fb.success = false;
  fb.granted_mib = 8.0;
  fb.used_mib = 5.0;
  fb.resource_failure = false;  // program crash, not our fault
  est.feedback(job, fb);
  EXPECT_DOUBLE_EQ(est.estimate(job, {}), 8.0);  // history intact
}

TEST(LastInstance, ResourceFailureWithoutUsagePoisonsGroup) {
  LastInstanceEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  const auto job = make_job(32.0, 5.0);
  (void)submit_cycle(est, job, true);
  Feedback fb;
  fb.success = false;
  fb.granted_mib = 8.0;
  fb.resource_failure = true;  // no usage report available
  est.feedback(job, fb);
  // Conservative reset: back to the full request.
  EXPECT_DOUBLE_EQ(est.estimate(job, {}), 32.0);
}

// --- RegressionEstimator -----------------------------------------------------

TEST(Regression, PassThroughBeforeMinObservations) {
  RegressionConfig cfg;
  cfg.min_observations = 10;
  RegressionEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  EXPECT_DOUBLE_EQ(est.estimate(make_job(32, 4), {}), 32.0);
}

TEST(Regression, LearnsGlobalHalvingRule) {
  // Every user requests 4x what they use; the paper's example says the
  // model should learn to divide requests accordingly.
  RegressionConfig cfg;
  cfg.min_observations = 50;
  cfg.margin = 1.1;
  RegressionEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double req = std::exp2(rng.uniform_int(2, 5));  // 4..32 MiB
    auto job = make_job(req, req / 4.0, /*user=*/1, /*app=*/1,
                        /*id=*/static_cast<JobId>(i));
    (void)submit_cycle(est, job, /*explicit_feedback=*/true);
  }
  // A fresh 32 MiB request should now be estimated near 8 MiB.
  const MiB grant = est.estimate(make_job(32, 8), {});
  EXPECT_LE(grant, 16.0);
  EXPECT_GE(grant, 8.0);
  EXPECT_EQ(est.observations(), 200u);
}

TEST(Regression, EstimateClampedToRequest) {
  RegressionConfig cfg;
  cfg.min_observations = 5;
  cfg.margin = 10.0;  // absurd headroom
  RegressionEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  for (int i = 0; i < 20; ++i) {
    (void)submit_cycle(est, make_job(32, 30), true);
  }
  EXPECT_LE(est.estimate(make_job(32, 30), {}), 32.0);
}

TEST(Regression, IgnoresFeedbackWithoutUsage) {
  RegressionEstimator est;
  Feedback fb;
  fb.success = true;
  fb.granted_mib = 32.0;
  est.feedback(make_job(32, 8), fb);  // implicit feedback: nothing to learn
  EXPECT_EQ(est.observations(), 0u);
}

TEST(Regression, KnnVariantLearnsPerUserPattern) {
  RegressionConfig cfg;
  cfg.model = RegressionModel::kKnn;
  cfg.min_observations = 30;
  cfg.margin = 1.1;
  RegressionEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  // User 1 uses 1/8 of requests; user 2 uses everything.
  for (int i = 0; i < 60; ++i) {
    (void)submit_cycle(est, make_job(32, 4, /*user=*/1), true);
    (void)submit_cycle(est, make_job(32, 31, /*user=*/2), true);
  }
  const MiB lean = est.estimate(make_job(32, 4, 1), {});
  const MiB heavy = est.estimate(make_job(32, 31, 2), {});
  EXPECT_LT(lean, heavy);
  EXPECT_LE(lean, 8.0);
  EXPECT_DOUBLE_EQ(heavy, 32.0);
}

// --- RlEstimator ------------------------------------------------------------

TEST(Rl, ConvergesTowardGlobalScalingPolicy) {
  // All jobs use half their request: the agent should learn that scaling
  // by 0.5 (or lower-but-safe 0.75) beats 1.0, per the paper's §4 example.
  RlEstimatorConfig cfg;
  cfg.agent.epsilon = 0.3;
  cfg.agent.epsilon_decay = 0.999;
  cfg.agent.learning_rate = 0.15;
  cfg.seed = 11;
  RlEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  SystemState state;
  state.busy_fraction = 0.5;
  state.queue_length = 4;

  for (int i = 0; i < 4000; ++i) {
    auto job = make_job(32.0, 16.0, 1, 1, static_cast<JobId>(i));
    const MiB grant = est.estimate(job, state);
    Feedback fb;
    fb.success = grant + 1e-9 >= job.used_mem_mib;
    fb.granted_mib = grant;
    est.feedback(job, fb);
  }
  const double factor = est.greedy_factor(make_job(32.0, 16.0), state);
  EXPECT_GE(factor, 0.5);   // never learned to under-provision
  EXPECT_LT(factor, 1.0);   // learned that full requests waste capacity
}

TEST(Rl, LearnsNotToCutWhenUsageIsFull) {
  RlEstimatorConfig cfg;
  cfg.agent.epsilon = 0.3;
  cfg.agent.epsilon_decay = 0.999;
  cfg.seed = 13;
  RlEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  SystemState state;
  for (int i = 0; i < 4000; ++i) {
    auto job = make_job(32.0, 31.0, 1, 1, static_cast<JobId>(i));
    const MiB grant = est.estimate(job, state);
    Feedback fb;
    fb.success = grant + 1e-9 >= job.used_mem_mib;
    fb.granted_mib = grant;
    est.feedback(job, fb);
  }
  EXPECT_DOUBLE_EQ(est.greedy_factor(make_job(32.0, 31.0), state), 1.0);
}

TEST(Rl, FeedbackWithoutPendingDecisionIsIgnored) {
  RlEstimator est;
  Feedback fb;
  fb.success = true;
  fb.granted_mib = 16.0;
  est.feedback(make_job(32, 8), fb);  // no crash
  EXPECT_EQ(est.agent().updates(), 0u);
}

TEST(Rl, NonResourceFailureDoesNotPenalize) {
  RlEstimator est;
  est.set_ladder(CapacityLadder({32}));
  auto job = make_job(32, 8);
  (void)est.estimate(job, {});
  Feedback fb;
  fb.success = false;
  fb.granted_mib = 32.0;
  fb.resource_failure = false;  // explicit feedback absolves the decision
  est.feedback(job, fb);
  EXPECT_EQ(est.agent().updates(), 0u);
}

TEST(Rl, PendingDecisionsStayBoundedWhenFeedbackNeverArrives) {
  // Regression test for the unbounded-growth leak: a degraded service
  // drops feedback by design, so decisions that never hear back must not
  // accumulate without limit.
  RlEstimatorConfig cfg;
  cfg.max_pending = 64;
  RlEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  for (int i = 0; i < 1000; ++i) {
    (void)est.estimate(make_job(32, 8, 1, 1, static_cast<JobId>(i)), {});
  }
  EXPECT_LE(est.pending_count(), 64u);
  // Eviction is oldest-first: late feedback for the first decision finds
  // nothing to reward, while the newest decision is still live.
  Feedback fb;
  fb.success = true;
  fb.granted_mib = 32.0;
  const std::size_t updates = est.agent().updates();
  est.feedback(make_job(32, 8, 1, 1, /*id=*/0), fb);
  EXPECT_EQ(est.agent().updates(), updates);
  est.feedback(make_job(32, 8, 1, 1, /*id=*/999), fb);
  EXPECT_EQ(est.agent().updates(), updates + 1);
  EXPECT_EQ(est.pending_count(), 63u);
}

TEST(Regression, BurnedKeyMemosStayBounded) {
  // Regression test for the unbounded-growth leak: every under-provisioned
  // similarity class used to leave a permanent memo; a long-lived service
  // with a churning key population must hold only the most recent ones.
  RegressionConfig cfg;
  cfg.max_burned_keys = 32;
  RegressionEstimator est(cfg);
  Feedback kill;
  kill.success = false;
  kill.granted_mib = 8.0;
  kill.resource_failure = true;
  for (int i = 0; i < 500; ++i) {
    est.feedback(make_job(32, 30, /*user=*/static_cast<UserId>(i)), kill);
  }
  EXPECT_EQ(est.burned_key_count(), 32u);
  // Re-burning an already-memoized key refreshes it, not duplicates it.
  est.feedback(make_job(32, 30, /*user=*/499), kill);
  EXPECT_EQ(est.burned_key_count(), 32u);
}

// --- QuantileEstimator -------------------------------------------------------

/// Drive `n` explicit-feedback cycles of (req, used) through an estimator.
void train(Estimator& est, int n, MiB req, MiB used, UserId user = 1) {
  for (int i = 0; i < n; ++i) {
    (void)submit_cycle(est, make_job(req, used, user), true);
  }
}

TEST(Quantile, PassesRequestThroughUntilWarm) {
  QuantileEstimatorConfig cfg;
  cfg.min_observations = 5;
  QuantileEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  EXPECT_FALSE(est.warm());
  EXPECT_DOUBLE_EQ(est.estimate(make_job(32, 4), {}), 32.0);
  // Rounds to a rung like every estimator.
  EXPECT_DOUBLE_EQ(est.estimate(make_job(20, 4), {}), 32.0);
}

TEST(Quantile, LearnsAnUpperBoundAndStopsPassingThrough) {
  QuantileEstimatorConfig cfg;
  cfg.min_observations = 50;
  QuantileEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  train(est, 300, /*req=*/32.0, /*used=*/4.0);
  EXPECT_TRUE(est.warm());
  const MiB grant = est.estimate(make_job(32, 4), {});
  EXPECT_LT(grant, 32.0);
  EXPECT_GE(grant, 4.0);  // never below what jobs actually use
  EXPECT_GT(est.coverage(), 0.8);
}

TEST(Quantile, EstimateNeverExceedsRoundedRequest) {
  QuantileEstimatorConfig cfg;
  cfg.min_observations = 10;
  cfg.margin = 4.0;
  cfg.max_margin = 4.0;
  QuantileEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  train(est, 100, 32.0, 30.0);
  EXPECT_LE(est.estimate(make_job(32, 30), {}), 32.0);
}

TEST(Quantile, MarginWidensUnderKillsAndRespectsTheCap) {
  QuantileEstimatorConfig cfg;
  cfg.min_observations = 20;
  QuantileEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  train(est, 100, 32.0, 8.0);
  const double calm_margin = est.margin();
  Feedback kill;
  kill.success = false;
  kill.granted_mib = 8.0;
  kill.used_mib = 16.0;
  kill.resource_failure = true;
  for (int i = 0; i < 50; ++i) est.feedback(make_job(32, 16), kill);
  EXPECT_GT(est.margin(), calm_margin);
  EXPECT_LE(est.margin(), cfg.max_margin);
}

TEST(Quantile, SaveStateRestoresADecisionTwin) {
  QuantileEstimatorConfig cfg;
  cfg.min_observations = 30;
  QuantileEstimator a(cfg);
  a.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  for (int i = 0; i < 120; ++i) {
    (void)submit_cycle(a, make_job(32, 2.0 + (i % 7), /*user=*/1 + i % 3),
                       true);
  }
  const auto state = a.save_state();
  QuantileEstimator b(cfg);
  b.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  ASSERT_TRUE(b.load_state(state));
  // Bit-identical decisions, then bit-identical evolution.
  for (int i = 0; i < 40; ++i) {
    const auto job = make_job(32, 2.0 + (i % 5), /*user=*/2);
    EXPECT_EQ(a.estimate(job, {}), b.estimate(job, {}));
    (void)submit_cycle(a, job, true);
    (void)submit_cycle(b, job, true);
  }
  EXPECT_EQ(a.save_state(), b.save_state());
}

TEST(Quantile, LoadStateRejectsGarbageUnchanged) {
  QuantileEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  train(est, 50, 32.0, 8.0);
  const auto good = est.save_state();
  EXPECT_FALSE(est.load_state({}));
  auto wrong_version = good;
  wrong_version[0] = 99.0;
  EXPECT_FALSE(est.load_state(wrong_version));
  auto truncated = good;
  truncated.pop_back();
  EXPECT_FALSE(est.load_state(truncated));
  auto wild_margin = good;
  wild_margin[1] = 1e6;
  EXPECT_FALSE(est.load_state(wild_margin));
  EXPECT_EQ(est.save_state(), good);
  EXPECT_TRUE(est.load_state(good));
}

// --- EnsembleEstimator -------------------------------------------------------

TEST(Ensemble, ColdGroupsReplayAlgorithmOneExactly) {
  EnsembleConfig cfg;
  cfg.quantile.min_observations = std::size_t{1} << 30;  // never warms
  EnsembleEstimator ens(cfg);
  SuccessiveApproxConfig sa_cfg;
  sa_cfg.alpha = 2.0;
  sa_cfg.beta = 0.0;
  SuccessiveApproximationEstimator sa(sa_cfg);
  const CapacityLadder ladder({1, 2, 4, 8, 16, 32});
  ens.set_ladder(ladder);
  sa.set_ladder(ladder);
  const auto job = make_job(32.0, 5.2);
  for (int i = 0; i < 10; ++i) {
    const MiB expected = submit_cycle(sa, job, /*explicit_feedback=*/true);
    const MiB got = submit_cycle(ens, job, /*explicit_feedback=*/true);
    EXPECT_DOUBLE_EQ(got, expected) << "cycle " << i;
  }
}

TEST(Ensemble, WarmModelPricesUnseenGroups) {
  EnsembleConfig cfg;
  cfg.quantile.min_observations = 50;
  cfg.coverage_threshold = 0.6;
  EnsembleEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  train(est, 400, 32.0, 4.0, /*user=*/1);
  // A brand-new group is priced off everything learned so far — the
  // cross-group transfer Algorithm 1 cannot do (it would grant 32).
  const auto fresh_job = make_job(32.0, 4.0, /*user=*/9);
  EXPECT_LT(est.preview(fresh_job, {}), 32.0);
  EXPECT_LT(est.estimate(fresh_job, {}), 32.0);
  const auto stats = est.model_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->groups_model, 1u);
}

TEST(Ensemble, GroupFallsBackToSaAfterConsecutiveModelKills) {
  EnsembleConfig cfg;
  cfg.quantile.min_observations = 50;
  cfg.coverage_threshold = 0.6;
  cfg.fallback_after = 3;
  EnsembleEstimator est(cfg);
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  train(est, 400, 32.0, 4.0, /*user=*/1);
  // Group 2's usage is far above anything the model has seen: the model
  // serves it and gets killed repeatedly.
  const auto hot = make_job(32.0, 30.0, /*user=*/2);
  for (int i = 0; i < 3; ++i) {
    const MiB grant = est.estimate(hot, {});
    ASSERT_LT(grant, 30.0) << "model should under-provision this group";
    Feedback fb;
    fb.success = false;
    fb.granted_mib = grant;
    fb.used_mib = 30.0;
    fb.resource_failure = true;
    est.feedback(hot, fb);
  }
  EXPECT_EQ(est.fallback_groups(), 1u);
  // Served by SA from now on: a fresh SA group starts at the request.
  EXPECT_DOUBLE_EQ(est.estimate(hot, {}), 32.0);
}

TEST(Ensemble, SaveStateRestoresADecisionTwin) {
  EnsembleConfig cfg;
  cfg.quantile.min_observations = 40;
  cfg.coverage_threshold = 0.6;
  EnsembleEstimator a(cfg);
  const CapacityLadder ladder({1, 2, 4, 8, 16, 32});
  a.set_ladder(ladder);
  for (int i = 0; i < 200; ++i) {
    (void)submit_cycle(a, make_job(32, 3.0 + (i % 6), /*user=*/1 + i % 4),
                       true);
  }
  const auto state = a.save_state();
  EnsembleEstimator b(cfg);
  b.set_ladder(ladder);
  ASSERT_TRUE(b.load_state(state));
  EXPECT_EQ(a.group_count(), b.group_count());
  EXPECT_EQ(a.fallback_groups(), b.fallback_groups());
  for (int i = 0; i < 60; ++i) {
    const auto job = make_job(32, 3.0 + (i % 6), /*user=*/1 + i % 5);
    EXPECT_EQ(a.estimate(job, {}), b.estimate(job, {}));
    (void)submit_cycle(a, job, true);
    (void)submit_cycle(b, job, true);
  }
  EXPECT_EQ(a.save_state(), b.save_state());
}

TEST(Ensemble, LoadStateRejectsTruncatedBlobUnchanged) {
  EnsembleEstimator est;
  est.set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  train(est, 30, 32.0, 5.0);
  const auto good = est.save_state();
  auto truncated = good;
  truncated.pop_back();
  EXPECT_FALSE(est.load_state(truncated));
  EXPECT_FALSE(est.load_state({1.0}));
  EXPECT_EQ(est.save_state(), good);
}

// --- Factory -----------------------------------------------------------------

TEST(Factory, BuildsEveryAdvertisedEstimator) {
  for (const auto& name : estimator_names()) {
    const auto est = make_estimator(name);
    ASSERT_NE(est, nullptr);
    EXPECT_EQ(est->name(), name == "none" ? "none" : est->name());
  }
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_estimator("magic"), std::invalid_argument);
}

TEST(Factory, ExplicitFeedbackRequirements) {
  EXPECT_FALSE(requires_explicit_feedback("none"));
  EXPECT_FALSE(requires_explicit_feedback("successive-approximation"));
  EXPECT_FALSE(requires_explicit_feedback("reinforcement-learning"));
  EXPECT_TRUE(requires_explicit_feedback("last-instance"));
  EXPECT_TRUE(requires_explicit_feedback("regression-ridge"));
  EXPECT_TRUE(requires_explicit_feedback("regression-knn"));
  EXPECT_TRUE(requires_explicit_feedback("quantile"));
  EXPECT_TRUE(requires_explicit_feedback("ensemble"));
}

TEST(Factory, OptionsAreForwarded) {
  EstimatorOptions options;
  options.alpha = 4.0;
  auto est = make_estimator("successive-approximation", options);
  est->set_ladder(CapacityLadder({1, 2, 4, 8, 16, 32}));
  const auto job = make_job(32.0, 5.0);
  EXPECT_DOUBLE_EQ(est->estimate(job, {}), 32.0);
  Feedback fb;
  fb.success = true;
  fb.granted_mib = 32.0;
  est->feedback(job, fb);
  // alpha = 4: next estimate is 8, not 16.
  EXPECT_DOUBLE_EQ(est->estimate(job, {}), 8.0);
}

// --- preview_epoch: the memoization contract the simulator relies on ----

TEST(PreviewEpoch, NoEstimatorReportsConstantEpoch) {
  auto est = make_estimator("none");
  est->set_ladder(CapacityLadder({8, 16, 32}));
  const auto job = make_job(20.0, 10.0);
  const auto before = est->preview_epoch(job);
  ASSERT_TRUE(before.has_value());
  (void)submit_cycle(*est, job);
  // Stateless preview: no event may ever invalidate it.
  EXPECT_EQ(est->preview_epoch(job), before);
}

TEST(PreviewEpoch, UnknownGroupIsZeroAndGroupCreationBumps) {
  auto est = make_estimator("successive-approximation");
  est->set_ladder(CapacityLadder({8, 16, 32}));
  const auto job = make_job(32.0, 5.0);
  const auto unknown = est->preview_epoch(job);
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(*unknown, 0u);
  // estimate() creates the group and commits — both invalidate.
  const MiB grant = est->estimate(job, {});
  const auto live = est->preview_epoch(job);
  ASSERT_TRUE(live.has_value());
  EXPECT_GT(*live, 0u);
  est->cancel(job, grant);
  // preview() itself must NOT advance the epoch (it is side-effect free).
  const auto settled = est->preview_epoch(job);
  (void)est->preview(job, {});
  (void)est->preview(job, {});
  EXPECT_EQ(est->preview_epoch(job), settled);
}

TEST(PreviewEpoch, FeedbackAndCancelInvalidate) {
  for (const char* name : {"successive-approximation", "last-instance"}) {
    SCOPED_TRACE(name);
    auto est = make_estimator(name);
    est->set_ladder(CapacityLadder({8, 16, 32}));
    const auto job = make_job(32.0, 5.0);
    (void)submit_cycle(*est, job, /*explicit_feedback=*/true);
    const auto after_first = est->preview_epoch(job);
    ASSERT_TRUE(after_first.has_value());
    (void)submit_cycle(*est, job, /*explicit_feedback=*/true);
    const auto after_second = est->preview_epoch(job);
    ASSERT_TRUE(after_second.has_value());
    // estimate+feedback happened in between: the epoch must have moved.
    EXPECT_NE(*after_second, *after_first);

    const MiB grant = est->estimate(job, {});
    const auto committed = est->preview_epoch(job);
    est->cancel(job, grant);
    const auto cancelled = est->preview_epoch(job);
    ASSERT_TRUE(committed.has_value());
    ASSERT_TRUE(cancelled.has_value());
    if (std::string(name) == "successive-approximation") {
      // SA's cancel releases the probe slot, which can change preview().
      EXPECT_NE(*cancelled, *committed);
    } else {
      // Last-instance keeps no per-attempt state: cancel is a no-op, so
      // the memoized preview legitimately stays valid.
      EXPECT_EQ(*cancelled, *committed);
    }
  }
}

TEST(PreviewEpoch, EqualEpochsImplyEqualPreviews) {
  // The contract itself, exercised across a learning run: whenever two
  // preview_epoch reads for a job agree, the previews must agree too.
  for (const char* name : {"successive-approximation", "last-instance"}) {
    SCOPED_TRACE(name);
    auto est = make_estimator(name);
    est->set_ladder(CapacityLadder({4, 8, 16, 32}));
    const auto job = make_job(32.0, 9.0);
    std::uint64_t last_epoch = ~0ULL;
    MiB last_preview = -1.0;
    for (int i = 0; i < 12; ++i) {
      const auto epoch = est->preview_epoch(job);
      ASSERT_TRUE(epoch.has_value());
      const MiB p = est->preview(job, {});
      if (*epoch == last_epoch) {
        EXPECT_DOUBLE_EQ(p, last_preview);
      }
      last_epoch = *epoch;
      last_preview = p;
      (void)submit_cycle(*est, job, /*explicit_feedback=*/true);
    }
  }
}

TEST(PreviewEpoch, LearningEstimatorsOptOut) {
  // Estimators whose preview depends on SystemState (or mutable model
  // internals) must return nullopt: no memoization guarantee.
  for (const char* name : {"regression-ridge", "regression-knn",
                           "reinforcement-learning", "quantile", "ensemble"}) {
    SCOPED_TRACE(name);
    auto est = make_estimator(name);
    est->set_ladder(CapacityLadder({8, 16, 32}));
    EXPECT_FALSE(est->preview_epoch(make_job(32.0, 5.0)).has_value());
  }
}

// --- GroupHandle: the caller-held group forms ------------------------------

TEST(GroupHandle, StartsUnresolvedAndRejectsIdsBeyond32Bits) {
  GroupHandle h;
  EXPECT_FALSE(h.resolved());
  h.resolve(7);
  EXPECT_TRUE(h.resolved());
  EXPECT_EQ(h.id(), 7u);
  h.resolve(kInvalidId32 - 1);  // the largest id that fits
  EXPECT_EQ(h.id(), kInvalidId32 - 1);
  // The all-ones id is the unresolved marker, and wider ids would be
  // truncated: both are errors.
  EXPECT_THROW(h.resolve(kInvalidId32), std::overflow_error);
  EXPECT_THROW(h.resolve(GroupId{1} << 32), std::overflow_error);
  EXPECT_EQ(h.id(), kInvalidId32 - 1);
}

TEST(GroupHandle, UnseenGroupStaysUnresolvedUntilTheFirstEstimate) {
  SuccessiveApproximationEstimator est;
  est.set_ladder(CapacityLadder({8, 16, 32}));
  const auto job = make_job(20.0, 5.0);
  GroupHandle h;
  // Reads of an unseen group answer as the record forms do, create
  // nothing, and leave the handle unresolved.
  EXPECT_DOUBLE_EQ(est.preview_with(job, h, {}), 32.0);
  EXPECT_EQ(est.preview_epoch_with(job, h), std::optional<std::uint64_t>(0));
  est.cancel_with(job, h, 32.0);
  EXPECT_FALSE(h.resolved());
  EXPECT_EQ(est.group_count(), 0u);

  // The first estimate creates the group and resolves the handle.
  EXPECT_DOUBLE_EQ(est.estimate_with(job, h, {}), 32.0);
  EXPECT_TRUE(h.resolved());
  EXPECT_EQ(est.group_count(), 1u);
  EXPECT_GT(*est.preview_epoch_with(job, h), 0u);

  // A second job of the same group resolves on its first read.
  GroupHandle other;
  EXPECT_DOUBLE_EQ(est.preview_with(make_job(20.0, 9.0, 1, 1, 2), other, {}),
                   est.preview(job, {}));
  EXPECT_TRUE(other.resolved());
  EXPECT_EQ(other.id(), h.id());
  EXPECT_EQ(est.group_count(), 1u);
}

TEST(GroupHandle, HandleFormsOfSaMatchItsRecordForms) {
  // A seeded differential: two identical SA estimators see the same random
  // operations over 200 jobs, one through the record forms and one through
  // the handle forms with a handle kept per job. Every return value must
  // agree, and both must hold exactly the groups that an estimate or a
  // feedback created: a handle may never create a group on a read. The
  // user+app key leaves requested memory out, so there the job that
  // creates a group also sets its first E_i (Algorithm 1 line 4).
  struct KeyCase {
    const char* name;
    SimilarityKeyFn key;
  };
  const KeyCase keys[] = {
      {"default", default_similarity_key},
      {"user+app",
       [](const trace::JobRecord& j) {
         return key_hash(static_cast<KeyMask>(KeyAttribute::kUser) |
                             static_cast<KeyMask>(KeyAttribute::kApp),
                         j);
       }},
  };
  constexpr std::size_t kJobs = 200;
  constexpr int kOps = 6000;
  for (const KeyCase& key : keys) {
    SCOPED_TRACE(key.name);
    SuccessiveApproximationEstimator by_record({}, key.key);
    SuccessiveApproximationEstimator by_handle({}, key.key);
    const CapacityLadder ladder({4, 8, 12, 16, 24, 32});
    by_record.set_ladder(ladder);
    by_handle.set_ladder(ladder);

    util::Rng rng(29);
    const MiB requests[] = {16.0, 24.0, 32.0};
    std::vector<trace::JobRecord> jobs;
    for (std::size_t j = 0; j < kJobs; ++j) {
      const auto g = static_cast<std::uint32_t>(rng.uniform_int(0, 19));
      const MiB req = requests[rng.uniform_int(0, 2)];
      jobs.push_back(
          make_job(req, rng.uniform(1.0, req), g / 4 + 1, g % 4 + 1, j + 1));
    }
    std::vector<GroupHandle> handles(kJobs);
    std::vector<MiB> last_grant(kJobs, 0.0);
    std::unordered_set<std::uint64_t> created;  // keys estimate/feedback saw

    for (int op = 0; op < kOps; ++op) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kJobs) - 1));
      const trace::JobRecord& job = jobs[j];
      GroupHandle& h = handles[j];
      const auto kind = rng.uniform_int(0, 4);
      SCOPED_TRACE("op " + std::to_string(op) + " kind " +
                   std::to_string(kind) + " job " + std::to_string(j));
      switch (kind) {
        case 0:
          ASSERT_EQ(by_record.preview(job, {}), by_handle.preview_with(job, h, {}));
          break;
        case 1:
          ASSERT_EQ(by_record.preview_epoch(job),
                    by_handle.preview_epoch_with(job, h));
          break;
        case 2: {
          const MiB grant = by_record.estimate(job, {});
          ASSERT_EQ(grant, by_handle.estimate_with(job, h, {}));
          last_grant[j] = grant;
          created.insert(key.key(job));
          break;
        }
        case 3:
          by_record.cancel(job, last_grant[j]);
          by_handle.cancel_with(job, h, last_grant[j]);
          break;
        default: {
          Feedback fb;
          fb.granted_mib = last_grant[j] > 0.0 ? last_grant[j]
                                               : job.requested_mem_mib;
          fb.success = fb.granted_mib + 1e-9 >= job.used_mem_mib;
          if (rng.bernoulli(0.5)) {
            fb.used_mib = job.used_mem_mib;
            fb.resource_failure = !fb.success;
          }
          by_record.feedback(job, fb);
          by_handle.feedback_with(job, h, fb);
          created.insert(key.key(job));
          break;
        }
      }
      ASSERT_EQ(by_record.group_count(), created.size());
      ASSERT_EQ(by_handle.group_count(), created.size());
      ASSERT_EQ(by_record.group_estimate(job), by_handle.group_estimate(job));
      ASSERT_EQ(h.resolved(), created.count(key.key(job)) > 0);
    }
    EXPECT_EQ(by_record.total_successes(), by_handle.total_successes());
    EXPECT_EQ(by_record.total_failures(), by_handle.total_failures());
  }
}

TEST(GroupHandle, DefaultFormsMatchTheRecordForms) {
  // Estimators that keep the base-class defaults (a group-less one, and one
  // with groups but no handle support) answer the same through both forms
  // and never touch the handle.
  for (const char* name : {"none", "last-instance"}) {
    SCOPED_TRACE(name);
    auto by_record = make_estimator(name);
    auto by_handle = make_estimator(name);
    by_record->set_ladder(CapacityLadder({8, 16, 32}));
    by_handle->set_ladder(CapacityLadder({8, 16, 32}));
    const auto job = make_job(32.0, 7.0);
    GroupHandle h;
    for (int round = 0; round < 6; ++round) {
      EXPECT_EQ(by_record->preview(job, {}), by_handle->preview_with(job, h, {}));
      EXPECT_EQ(by_record->preview_epoch(job),
                by_handle->preview_epoch_with(job, h));
      const MiB grant = by_record->estimate(job, {});
      ASSERT_EQ(grant, by_handle->estimate_with(job, h, {}));
      if (round == 3) {
        by_record->cancel(job, grant);
        by_handle->cancel_with(job, h, grant);
        continue;
      }
      Feedback fb;
      fb.granted_mib = grant;
      fb.success = grant >= job.used_mem_mib;
      fb.used_mib = job.used_mem_mib;
      fb.resource_failure = !fb.success;
      by_record->feedback(job, fb);
      by_handle->feedback_with(job, h, fb);
    }
    EXPECT_FALSE(h.resolved());
  }
}

}  // namespace
}  // namespace resmatch::core
