// Unit tests for core support types: the capacity ladder (Algorithm 1's
// rounding), online similarity indexing, the multi-resource generalization
// and the prerequisite-package estimator.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/capacity_ladder.hpp"
#include "core/multi_resource.hpp"
#include "core/prereq_estimator.hpp"
#include "core/similarity.hpp"
#include "util/rng.hpp"

namespace resmatch::core {
namespace {

trace::JobRecord job_of(UserId user, AppId app, MiB req) {
  trace::JobRecord j;
  j.user = user;
  j.app = app;
  j.requested_mem_mib = req;
  j.used_mem_mib = req / 2;
  j.runtime = 100;
  j.nodes = 32;
  return j;
}

TEST(CapacityLadder, RoundUpPicksSmallestAdequate) {
  CapacityLadder ladder({32.0, 24.0, 8.0});
  EXPECT_DOUBLE_EQ(ladder.round_up(5.0), 8.0);
  EXPECT_DOUBLE_EQ(ladder.round_up(8.0), 8.0);
  EXPECT_DOUBLE_EQ(ladder.round_up(8.1), 24.0);
  EXPECT_DOUBLE_EQ(ladder.round_up(24.5), 32.0);
  EXPECT_DOUBLE_EQ(ladder.round_up(32.0), 32.0);
}

TEST(CapacityLadder, AboveMaxReturnsValueUnchanged) {
  CapacityLadder ladder({32.0});
  EXPECT_DOUBLE_EQ(ladder.round_up(33.0), 33.0);
}

TEST(CapacityLadder, EmptyLadderIsIdentity) {
  CapacityLadder ladder;
  EXPECT_TRUE(ladder.empty());
  EXPECT_DOUBLE_EQ(ladder.round_up(7.5), 7.5);
}

TEST(CapacityLadder, DeduplicatesAndSorts) {
  CapacityLadder ladder({32.0, 8.0, 32.0, 24.0, 8.0});
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_DOUBLE_EQ(ladder.min(), 8.0);
  EXPECT_DOUBLE_EQ(ladder.max(), 32.0);
}

TEST(CapacityLadder, RoundDown) {
  CapacityLadder ladder({8.0, 24.0, 32.0});
  EXPECT_EQ(ladder.round_down(30.0), 24.0);
  EXPECT_EQ(ladder.round_down(8.0), 8.0);
  EXPECT_FALSE(ladder.round_down(7.0).has_value());
}

TEST(CapacityLadder, ToleratesFloatingPointNoise) {
  CapacityLadder ladder({24.0});
  // 48/2 computed in floating point must still land on the 24 rung.
  EXPECT_DOUBLE_EQ(ladder.round_up(48.0 / 2.0), 24.0);
}

TEST(SimilarityIndex, AssignsDenseIdsInFirstSeenOrder) {
  SimilarityIndex index;
  EXPECT_EQ(index.group_of(job_of(1, 1, 32)), 0u);
  EXPECT_EQ(index.group_of(job_of(2, 1, 32)), 1u);
  EXPECT_EQ(index.group_of(job_of(1, 1, 32)), 0u);  // repeat -> same group
  EXPECT_EQ(index.group_count(), 2u);
}

TEST(SimilarityIndex, FindWithoutCreating) {
  SimilarityIndex index;
  EXPECT_FALSE(index.find(job_of(1, 1, 32)).has_value());
  (void)index.group_of(job_of(1, 1, 32));
  EXPECT_EQ(index.find(job_of(1, 1, 32)), 0u);
  EXPECT_EQ(index.group_count(), 1u);
}

TEST(SimilarityIndex, CustomKeyFunction) {
  // Group by user only.
  SimilarityIndex index(
      [](const trace::JobRecord& j) { return static_cast<std::uint64_t>(j.user); });
  EXPECT_EQ(index.group_of(job_of(1, 1, 32)), index.group_of(job_of(1, 9, 8)));
  EXPECT_NE(index.group_of(job_of(1, 1, 32)), index.group_of(job_of(2, 1, 32)));
}

TEST(SimilarityIndex, MatchesFirstSeenMapThroughGrowth) {
  // Differential test against std::unordered_map assigning first-seen ids:
  // over 100k keys (16 slots grown through 14 doublings), with the keys 0
  // and UINT64_MAX, and with keys sharing all their low bits so that an
  // unmixed table would put every key in one probe chain.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::size_t kGroups = 100000;
  const std::pair<const char*, SimilarityKeyFn> key_fns[] = {
      {"id", [](const trace::JobRecord& j) { return j.id; }},
      {"id << 40", [](const trace::JobRecord& j) { return j.id << 40; }},
  };
  for (const auto& named : key_fns) {
    SCOPED_TRACE(named.first);
    const SimilarityKeyFn& key_fn = named.second;
    SimilarityIndex index(key_fn);
    std::unordered_map<std::uint64_t, GroupId> reference;
    std::vector<JobId> seen;
    util::Rng rng(11);
    auto job_with = [](JobId id) {
      trace::JobRecord j;
      j.id = id;
      return j;
    };
    auto expected_find = [&](JobId id) -> std::optional<GroupId> {
      const auto it = reference.find(key_fn(job_with(id)));
      if (it == reference.end()) return std::nullopt;
      return it->second;
    };
    auto add = [&](JobId id) {
      // find first: it must agree with the reference and never create.
      const std::size_t before = index.group_count();
      ASSERT_EQ(index.find(job_with(id)), expected_find(id));
      ASSERT_EQ(index.group_count(), before);
      const auto [it, inserted] =
          reference.try_emplace(key_fn(job_with(id)), reference.size());
      ASSERT_EQ(index.group_of(job_with(id)), it->second);
      ASSERT_EQ(index.group_count(), reference.size());
      if (inserted) seen.push_back(id);
    };
    ASSERT_NO_FATAL_FAILURE(add(0));
    ASSERT_NO_FATAL_FAILURE(add(kMax));
    while (reference.size() < kGroups) {
      const auto last = static_cast<std::int64_t>(seen.size()) - 1;
      const JobId id =
          rng.bernoulli(0.6) ? rng() : seen[rng.uniform_int(0, last)];
      ASSERT_NO_FATAL_FAILURE(add(id));
      // A probe for a key that is (almost surely) absent.
      if (rng.bernoulli(0.1)) {
        const JobId absent = rng();
        ASSERT_EQ(index.find(job_with(absent)), expected_find(absent));
      }
    }
    EXPECT_EQ(index.group_count(), kGroups);
    for (const JobId id : seen) {
      ASSERT_EQ(index.find(job_with(id)), expected_find(id));
    }
    EXPECT_EQ(index.find(job_with(0)), 0u);
    EXPECT_EQ(index.find(job_with(kMax)), 1u);
  }
}

TEST(MultiResource, FirstEstimateProbesOneCoordinate) {
  MultiResourceEstimator est(2, {2.0, 0.0});
  const auto e = est.estimate(0, {32.0, 100.0});
  // Exactly one coordinate halved, the other at the request.
  EXPECT_DOUBLE_EQ(e[0], 16.0);
  EXPECT_DOUBLE_EQ(e[1], 100.0);
}

TEST(MultiResource, RoundRobinAcrossCoordinates) {
  MultiResourceEstimator est(2, {2.0, 0.0});
  auto e1 = est.estimate(0, {32.0, 100.0});
  est.feedback(0, true);  // adopt {16, 100}
  auto e2 = est.estimate(0, {32.0, 100.0});
  EXPECT_DOUBLE_EQ(e2[0], 16.0);
  EXPECT_DOUBLE_EQ(e2[1], 50.0);  // now probes the second coordinate
  est.feedback(0, true);
  auto e3 = est.estimate(0, {32.0, 100.0});
  EXPECT_DOUBLE_EQ(e3[0], 8.0);  // back to the first
  EXPECT_DOUBLE_EQ(e3[1], 50.0);
}

TEST(MultiResource, FailureBlamesOnlyProbedCoordinate) {
  MultiResourceEstimator est(2, {2.0, 0.0});
  (void)est.estimate(0, {32.0, 100.0});  // probes coord 0 -> {16, 100}
  est.feedback(0, false);                // coord 0 frozen at 32
  const auto e = est.estimate(0, {32.0, 100.0});
  EXPECT_DOUBLE_EQ(e[0], 32.0);  // restored and frozen (beta = 0)
  EXPECT_DOUBLE_EQ(e[1], 50.0);  // coord 1 still explorable
  est.feedback(0, true);
  const auto good = est.last_good(0);
  ASSERT_TRUE(good.has_value());
  EXPECT_DOUBLE_EQ((*good)[0], 32.0);
  EXPECT_DOUBLE_EQ((*good)[1], 50.0);
}

TEST(MultiResource, BetaDampsInsteadOfFreezing) {
  MultiResourceEstimator est(1, {4.0, 0.5});
  (void)est.estimate(0, {32.0});  // probe 8
  est.feedback(0, false);         // alpha 4 -> 2
  const auto e = est.estimate(0, {32.0});
  EXPECT_DOUBLE_EQ(e[0], 16.0);  // finer probe
}

TEST(MultiResource, GroupsAreIndependent) {
  MultiResourceEstimator est(1, {2.0, 0.0});
  (void)est.estimate(0, {32.0});
  est.feedback(0, true);
  const auto other = est.estimate(1, {8.0});
  EXPECT_DOUBLE_EQ(other[0], 4.0);  // fresh group starts from its request
  EXPECT_EQ(est.group_count(), 2u);
}

TEST(MultiResource, FeedbackWithoutEstimateIsIgnored) {
  MultiResourceEstimator est(1);
  est.feedback(42, true);  // no crash, no state
  EXPECT_EQ(est.group_count(), 0u);
}

TEST(Prereq, FirstEstimateDropsOneUnknown) {
  PrerequisiteEstimator est;
  const auto req = est.estimate(0, 3);
  ASSERT_EQ(req.size(), 3u);
  EXPECT_EQ(req[0], false);  // the probed prerequisite
  EXPECT_EQ(req[1], true);
  EXPECT_EQ(req[2], true);
}

TEST(Prereq, SuccessMarksDroppable) {
  PrerequisiteEstimator est;
  (void)est.estimate(0, 2);  // drops prereq 0
  est.feedback(0, true);
  EXPECT_EQ(est.status(0, 0), PrerequisiteEstimator::Status::kDroppable);
  const auto next = est.estimate(0, 2);
  EXPECT_EQ(next[0], false);  // stays dropped
  EXPECT_EQ(next[1], false);  // now probing prereq 1
}

TEST(Prereq, FailureMarksRequired) {
  PrerequisiteEstimator est;
  (void)est.estimate(0, 2);
  est.feedback(0, false);
  EXPECT_EQ(est.status(0, 0), PrerequisiteEstimator::Status::kRequired);
  const auto next = est.estimate(0, 2);
  EXPECT_EQ(next[0], true);   // required forever
  EXPECT_EQ(next[1], false);  // probing the other one
}

TEST(Prereq, ConvergesToExactRequiredSet) {
  // Ground truth: prereqs {0, 2} required, {1, 3} unused.
  PrerequisiteEstimator est;
  const std::vector<bool> truly_needed = {true, false, true, false};
  for (int round = 0; round < 8; ++round) {
    const auto req = est.estimate(7, 4);
    bool success = true;
    for (std::size_t i = 0; i < 4; ++i) {
      if (truly_needed[i] && !req[i]) success = false;
    }
    est.feedback(7, success);
  }
  const auto final_req = est.estimate(7, 4);
  EXPECT_TRUE(final_req[0]);
  EXPECT_FALSE(final_req[1]);
  EXPECT_TRUE(final_req[2]);
  EXPECT_FALSE(final_req[3]);
  EXPECT_EQ(est.droppable_count(7), 2u);
}

TEST(Prereq, NothingLeftToProbeRequiresOnlyRequired) {
  PrerequisiteEstimator est;
  (void)est.estimate(0, 1);
  est.feedback(0, false);  // the only prereq is required
  const auto req = est.estimate(0, 1);
  EXPECT_TRUE(req[0]);
  // Feedback when nothing was probed teaches nothing and must not flip state.
  est.feedback(0, true);
  EXPECT_EQ(est.status(0, 0), PrerequisiteEstimator::Status::kRequired);
}

}  // namespace
}  // namespace resmatch::core
