// Decision-equivalence tests for the simulator hot-path optimizations.
//
// The optimized engine (incremental pool counters, live running-set index,
// preview memoization, pop_front removal) must make EXACTLY the decisions
// of the pre-optimization seed engine. Two layers of protection:
//   * a pinned golden grid (3 policies x 3 estimators on a generated CM5
//     workload with dynamic availability) whose values were captured from
//     the seed engine before any optimization landed — a regression here
//     means the engine's behaviour drifted, not just its speed;
//   * result digests (tests/sim_golden.hpp) captured from the seed engine
//     for the grid and for randomized availability schedules, which every
//     entry point must reproduce bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim_golden.hpp"

namespace resmatch {
namespace {

using golden::golden_cluster;
using golden::golden_config;
using golden::golden_workload;

/// Values captured from the seed engine (pre-optimization) for the golden
/// configuration. Integers must match exactly; doubles are pinned with a
/// tight relative tolerance (libm differences across platforms only).
struct Golden {
  const char* policy;
  const char* estimator;
  std::size_t completed;
  std::size_t attempts;
  std::size_t resource_failures;
  std::size_t intrinsic_failed;
  std::size_t dropped_unschedulable;
  std::size_t dropped_attempt_cap;
  std::size_t lowered_starts;
  double utilization;
  double mean_wait;
  double mean_slowdown;
  double makespan;
  std::size_t ts_points;
};

constexpr Golden kGolden[] = {
    {"fcfs", "none", 1200u, 1200u, 0u, 0u, 0u, 0u, 0u, 0.80338686502192747,
     144.88208888838631, 1.3220639016365161, 50525.582616941261, 702u},
    {"fcfs", "successive-approximation", 1200u, 1200u, 0u, 0u, 0u, 0u, 175u,
     0.80338686502192747, 132.31285032289384, 1.2925480027089997,
     50525.582616941261, 706u},
    {"fcfs", "last-instance", 1200u, 1200u, 0u, 0u, 0u, 0u, 183u,
     0.80338686502192747, 131.00075676223, 1.2902228740474144,
     50525.582616941261, 706u},
    {"sjf", "none", 1200u, 1200u, 0u, 0u, 0u, 0u, 0u, 0.80822428268941882,
     47.404109925139664, 1.0839562023824614, 50232.232230680995, 702u},
    {"sjf", "successive-approximation", 1200u, 1200u, 0u, 0u, 0u, 0u, 176u,
     0.80822428268941882, 46.978947431938323, 1.0847224704280756,
     50232.232230680995, 704u},
    {"sjf", "last-instance", 1200u, 1200u, 0u, 0u, 0u, 0u, 182u,
     0.80822428268941882, 46.977159060725342, 1.0849343269882574,
     50232.232230680995, 703u},
    {"easy-backfill", "none", 1200u, 1200u, 0u, 0u, 0u, 0u, 0u,
     0.80822428268941848, 76.947134137160589, 1.1497997665433906,
     50232.232230680995, 702u},
    {"easy-backfill", "successive-approximation", 1200u, 1200u, 0u, 0u, 0u,
     0u, 177u, 0.80822428268941882, 76.316785515231288, 1.1537611750970929,
     50232.232230680995, 704u},
    {"easy-backfill", "last-instance", 1200u, 1200u, 0u, 0u, 0u, 0u, 182u,
     0.80822428268941882, 77.448619320768017, 1.1581873282440374,
     50232.232230680995, 702u},
};

void expect_near_rel(double actual, double expected) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-9 + 1e-12);
}

TEST(PerfEquivalence, OptimizedEngineMatchesSeedGoldens) {
  const trace::Workload w = golden_workload();
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.policy) + " / " + g.estimator);
    sim::TimeSeries ts(50.0);
    const auto est = core::make_estimator(g.estimator);
    const auto pol = sched::make_policy(g.policy);
    sim::SimulationConfig cfg = golden_config();
    cfg.timeseries = &ts;
    const auto r = sim::simulate(w, golden_cluster(), *est, *pol, cfg);
    EXPECT_EQ(r.completed, g.completed);
    EXPECT_EQ(r.attempts, g.attempts);
    EXPECT_EQ(r.resource_failures, g.resource_failures);
    EXPECT_EQ(r.intrinsic_failed, g.intrinsic_failed);
    EXPECT_EQ(r.dropped_unschedulable, g.dropped_unschedulable);
    EXPECT_EQ(r.dropped_attempt_cap, g.dropped_attempt_cap);
    EXPECT_EQ(r.lowered_starts, g.lowered_starts);
    expect_near_rel(r.utilization, g.utilization);
    expect_near_rel(r.mean_wait, g.mean_wait);
    expect_near_rel(r.mean_slowdown, g.mean_slowdown);
    expect_near_rel(r.makespan, g.makespan);
    EXPECT_EQ(ts.points().size(), g.ts_points);
  }
}

TEST(PerfEquivalence, GoldenGridDigestsFromEveryEntryPoint) {
  const trace::Workload w = golden_workload();
  for (std::size_t p = 0; p < std::size(golden::kPolicies); ++p) {
    for (std::size_t e = 0; e < std::size(golden::kEstimators); ++e) {
      SCOPED_TRACE(std::string(golden::kPolicies[p]) + " / " +
                   golden::kEstimators[e]);
      golden::expect_every_entry_point(
          golden::kGridDigests[p][e], w, golden_cluster(),
          golden::kPolicies[p], golden::kEstimators[e], golden_config());
    }
  }
}

/// Seed-engine digests of churn_config(1000 + trial, trial) under
/// successive approximation, by trial and policy (golden::kPolicies).
constexpr std::uint64_t kChurnDigests[6][3] = {
    {0x13226314BD9B6D34ULL, 0x03D17DB8B896E21EULL, 0x7F4D1251861711C4ULL},
    {0xAD544586537C87B9ULL, 0xB984904423DF52B0ULL, 0x8F2A14D4AEB295CCULL},
    {0x151DB377C7DDFE43ULL, 0xC67B8ADDEF9ACD1DULL, 0x2230264CE14D63A1ULL},
    {0x9DC7F72F50752105ULL, 0x616168CB96037ED3ULL, 0xAA67D30E66B69294ULL},
    {0x4D484E22B33E1289ULL, 0xA077DC540AFD98F5ULL, 0x28550707492230D0ULL},
    {0x52346978F663F200ULL, 0xD8BC41A75C4FC8A1ULL, 0x85EA9674EDB6D200ULL},
};

// Randomized availability schedules, not just the pinned one: machines
// joining and leaving exercise the incremental pool counters' drain
// bookkeeping and the pending-capacity hold logic.
TEST(PerfEquivalence, RandomizedAvailabilityDigests) {
  const trace::Workload w = golden::churn_workload();
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const sim::SimulationConfig cfg = golden::churn_config(1000 + trial, trial);
    for (std::size_t p = 0; p < std::size(golden::kPolicies); ++p) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " / " +
                   golden::kPolicies[p]);
      golden::expect_every_entry_point(kChurnDigests[trial][p], w,
                                       golden_cluster(), golden::kPolicies[p],
                                       "successive-approximation", cfg);
    }
  }
}

}  // namespace
}  // namespace resmatch
