// Unit tests for the heterogeneous cluster model: pool bookkeeping,
// best/worst-fit allocation, and the capacity ladder it exports.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace resmatch::sim {
namespace {

TEST(ClusterSpecHelper, Cm5Heterogeneous) {
  const ClusterSpec spec = cm5_heterogeneous(24.0);
  ASSERT_EQ(spec.size(), 2u);
  EXPECT_DOUBLE_EQ(spec[0].capacity, 32.0);
  EXPECT_EQ(spec[0].count, 512u);
  EXPECT_DOUBLE_EQ(spec[1].capacity, 24.0);
  EXPECT_EQ(spec[1].count, 512u);
}

TEST(Cluster, CountsAndLadder) {
  Cluster cluster({{32.0, 4}, {8.0, 2}, {24.0, 3}});
  EXPECT_EQ(cluster.machine_count(), 9u);
  EXPECT_EQ(cluster.eligible_total(0.0), 9u);
  EXPECT_EQ(cluster.eligible_total(10.0), 7u);
  EXPECT_EQ(cluster.eligible_total(32.0), 4u);
  EXPECT_EQ(cluster.eligible_total(33.0), 0u);
  const auto ladder = cluster.ladder();
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_DOUBLE_EQ(ladder.round_up(9.0), 24.0);
}

TEST(Cluster, MergesSameCapacityPools) {
  Cluster cluster({{32.0, 4}, {32.0, 6}});
  EXPECT_EQ(cluster.machine_count(), 10u);
  EXPECT_EQ(cluster.ladder().size(), 1u);
}

TEST(Cluster, RejectsInvalidSpecs) {
  EXPECT_THROW(Cluster({}), std::invalid_argument);
  EXPECT_THROW(Cluster({{0.0, 4}}), std::invalid_argument);
  EXPECT_THROW(Cluster({{-1.0, 4}}), std::invalid_argument);
}

TEST(Cluster, BestFitPrefersSmallMachines) {
  Cluster cluster({{32.0, 4}, {8.0, 4}}, AllocationPolicy::kBestFit);
  const auto alloc = cluster.allocate(2, 8.0);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_DOUBLE_EQ(alloc->min_capacity, 8.0);
  EXPECT_EQ(cluster.eligible_free(32.0), 4u);  // big pool untouched
  EXPECT_EQ(cluster.eligible_free(0.0), 6u);
}

TEST(Cluster, WorstFitPrefersBigMachines) {
  Cluster cluster({{32.0, 4}, {8.0, 4}}, AllocationPolicy::kWorstFit);
  const auto alloc = cluster.allocate(2, 8.0);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_DOUBLE_EQ(alloc->min_capacity, 32.0);
  EXPECT_EQ(cluster.eligible_free(32.0), 2u);
}

TEST(Cluster, AllocationSpansPoolsWhenNeeded) {
  Cluster cluster({{32.0, 3}, {8.0, 2}});
  const auto alloc = cluster.allocate(4, 8.0);
  ASSERT_TRUE(alloc.has_value());
  // Best fit takes both 8 MiB machines plus two 32 MiB ones.
  EXPECT_DOUBLE_EQ(alloc->min_capacity, 8.0);
  EXPECT_EQ(cluster.eligible_free(0.0), 1u);
  EXPECT_EQ(cluster.busy_count(), 4u);
}

TEST(Cluster, RespectsCapacityFloor) {
  Cluster cluster({{32.0, 2}, {8.0, 10}});
  // Needs 3 machines at >= 16: only 2 exist.
  EXPECT_FALSE(cluster.allocate(3, 16.0).has_value());
  // Nothing was partially taken.
  EXPECT_EQ(cluster.busy_count(), 0u);
  EXPECT_EQ(cluster.eligible_free(0.0), 12u);
}

TEST(Cluster, ReleaseRestoresFreeCounts) {
  Cluster cluster({{32.0, 4}, {8.0, 4}});
  const auto alloc = cluster.allocate(6, 8.0);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(cluster.busy_count(), 6u);
  EXPECT_DOUBLE_EQ(cluster.busy_fraction(), 0.75);
  cluster.release(*alloc);
  EXPECT_EQ(cluster.busy_count(), 0u);
  EXPECT_EQ(cluster.eligible_free(0.0), 8u);
}

TEST(Cluster, ZeroNodeAllocationRejected) {
  Cluster cluster({{32.0, 4}});
  EXPECT_FALSE(cluster.allocate(0, 8.0).has_value());
}

TEST(Cluster, ExhaustiveAllocateReleaseCycle) {
  // Property: any interleaving of allocations and releases conserves
  // machines.
  Cluster cluster({{32.0, 5}, {24.0, 5}, {8.0, 5}});
  std::vector<Allocation> held;
  for (int round = 0; round < 20; ++round) {
    const auto alloc =
        cluster.allocate(1 + round % 4, round % 2 ? 24.0 : 8.0);
    if (alloc) held.push_back(*alloc);
    if (round % 3 == 2 && !held.empty()) {
      cluster.release(held.back());
      held.pop_back();
    }
    std::size_t busy = 0;
    for (const auto& a : held) busy += a.nodes;
    ASSERT_EQ(cluster.busy_count(), busy);
    ASSERT_EQ(cluster.eligible_free(0.0), 15u - busy);
  }
}

// --- incremental pool counters vs snapshot() ----------------------------

/// The counters must agree with the numbers snapshot() derives, at every
/// point in any operation sequence.
void expect_counters_match_snapshot(const Cluster& cluster) {
  const auto snaps = cluster.snapshot();
  ASSERT_EQ(cluster.pool_count(), snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const auto counters = cluster.pool_counters(i);
    EXPECT_DOUBLE_EQ(counters.capacity, snaps[i].capacity);
    EXPECT_EQ(counters.busy, snaps[i].busy);
    EXPECT_EQ(counters.present, snaps[i].present());
  }
}

TEST(PoolCounters, TrackAllocateAndRelease) {
  Cluster cluster({{32.0, 4}, {8.0, 4}});
  expect_counters_match_snapshot(cluster);
  const auto a = cluster.allocate(3, 8.0);
  ASSERT_TRUE(a.has_value());
  expect_counters_match_snapshot(cluster);
  const auto b = cluster.allocate(4, 8.0);  // spans both pools
  ASSERT_TRUE(b.has_value());
  expect_counters_match_snapshot(cluster);
  cluster.release(*a);
  expect_counters_match_snapshot(cluster);
  cluster.release(*b);
  expect_counters_match_snapshot(cluster);
  EXPECT_EQ(cluster.pool_counters(0).busy, 0u);
  EXPECT_EQ(cluster.pool_counters(1).busy, 0u);
}

TEST(PoolCounters, TrackDrainingRemovals) {
  Cluster cluster({{32.0, 4}, {8.0, 4}});
  const auto a = cluster.allocate(6, 0.0);  // both pools busy
  ASSERT_TRUE(a.has_value());
  // Remove more 8 MiB machines than are free: the rest drain. Busy and
  // present must keep counting drainers until their job releases them.
  cluster.remove_machines(8.0, 4);
  expect_counters_match_snapshot(cluster);
  cluster.add_machines(32.0, 2);
  expect_counters_match_snapshot(cluster);
  cluster.release(*a);  // drainers depart here
  expect_counters_match_snapshot(cluster);
}

TEST(PoolCounters, RandomizedChurnMatchesSnapshot) {
  util::Rng rng(77);
  Cluster cluster({{32.0, 24}, {24.0, 24}, {8.0, 16}});
  std::vector<Allocation> held;
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 3));
    if (op == 0) {
      const auto nodes = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
      const MiB cap = rng.bernoulli(0.5) ? 8.0 : 24.0;
      if (auto alloc = cluster.allocate(nodes, cap)) {
        held.push_back(std::move(*alloc));
      }
    } else if (op == 1 && !held.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      cluster.release(held[idx]);
      held.erase(held.begin() + static_cast<long>(idx));
    } else if (op == 2) {
      const MiB cap = rng.bernoulli(0.5) ? 32.0 : 24.0;
      cluster.add_machines(cap, static_cast<std::size_t>(rng.uniform_int(0, 4)));
    } else {
      const MiB cap = rng.bernoulli(0.5) ? 32.0 : 24.0;
      cluster.remove_machines(cap,
                              static_cast<std::size_t>(rng.uniform_int(0, 4)));
    }
    expect_counters_match_snapshot(cluster);
  }
  for (const auto& alloc : held) {
    cluster.release(alloc);
    expect_counters_match_snapshot(cluster);
  }
}

}  // namespace
}  // namespace resmatch::sim
