// Unit tests for scheduling policies: strict FCFS blocking, SJF selection,
// and EASY backfilling's reservation safety on heterogeneous pools, on
// memory alone and on the full resource vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sched/easy_backfill.hpp"
#include "sched/factory.hpp"
#include "sched/fcfs.hpp"
#include "sched/sjf.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace resmatch::sched {
namespace {

/// One pool of a scripted cluster: per-node capacity and free machines.
struct FakePool {
  ResourceVector cap;
  std::size_t free = 0;
};

/// Scripted cluster view over pools listed in the allocator's order.
class FakeCluster final : public ClusterView {
 public:
  explicit FakeCluster(std::vector<FakePool> pools)
      : pools_(std::move(pools)) {}

  /// Two memory-only pools, small capacity first (best-fit order).
  FakeCluster(MiB small_cap, std::size_t small_free, MiB big_cap,
              std::size_t big_free)
      : FakeCluster({{ResourceVector(small_cap), small_free},
                     {ResourceVector(big_cap), big_free}}) {}

  std::size_t eligible_free(const ResourceVector& request) const override {
    std::size_t n = 0;
    for (const FakePool& p : pools_) {
      if (p.cap.covers(request, kMaxResourceDims)) n += p.free;
    }
    return n;
  }
  std::size_t eligible_free_before(
      const ResourceVector& request,
      const ResourceVector& reserved) const override {
    std::size_t n = 0;
    for (const FakePool& p : pools_) {
      if (p.free == 0 || !p.cap.covers(request, kMaxResourceDims)) continue;
      if (p.cap.covers(reserved, kMaxResourceDims)) break;
      n += p.free;
    }
    return n;
  }

 private:
  std::vector<FakePool> pools_;
};

QueuedJob queued(std::size_t index, std::uint32_t nodes,
                 const ResourceVector& request,
                 Seconds requested_time = 100.0) {
  QueuedJob q;
  q.trace_index = index;
  q.nodes = nodes;
  q.preview = request;
  q.requested_time = requested_time;
  return q;
}

TEST(FitsNow, ChecksEligibleFreeMachines) {
  FakeCluster cluster(24, 10, 32, 5);
  EXPECT_TRUE(fits_now(queued(0, 15, 24.0), cluster));   // 15 <= 10+5
  EXPECT_FALSE(fits_now(queued(0, 16, 24.0), cluster));
  EXPECT_TRUE(fits_now(queued(0, 5, 32.0), cluster));    // only big pool
  EXPECT_FALSE(fits_now(queued(0, 6, 32.0), cluster));
}

TEST(Fcfs, PicksHeadWhenItFits) {
  FcfsPolicy policy;
  FakeCluster cluster(24, 10, 32, 5);
  std::deque<QueuedJob> queue = {queued(0, 4, 24.0), queued(1, 1, 24.0)};
  EXPECT_EQ(policy.pick_next(queue, cluster, {}, 0.0), 0u);
}

TEST(Fcfs, BlocksBehindNonFittingHead) {
  FcfsPolicy policy;
  FakeCluster cluster(24, 2, 32, 0);
  // Head needs 4 machines, only 2 free; the tiny job behind must wait.
  std::deque<QueuedJob> queue = {queued(0, 4, 24.0), queued(1, 1, 24.0)};
  EXPECT_FALSE(policy.pick_next(queue, cluster, {}, 0.0).has_value());
}

TEST(Fcfs, EmptyQueue) {
  FcfsPolicy policy;
  FakeCluster cluster(24, 2, 32, 0);
  EXPECT_FALSE(policy.pick_next({}, cluster, {}, 0.0).has_value());
}

TEST(Sjf, PicksShortestFittingJob) {
  SjfPolicy policy;
  FakeCluster cluster(24, 3, 32, 0);
  std::deque<QueuedJob> queue = {queued(0, 2, 24.0, 500.0),
                                  queued(1, 2, 24.0, 100.0),
                                  queued(2, 2, 24.0, 300.0)};
  EXPECT_EQ(policy.pick_next(queue, cluster, {}, 0.0), 1u);
}

TEST(Sjf, SkipsNonFittingShorterJob) {
  SjfPolicy policy;
  FakeCluster cluster(24, 3, 32, 0);
  std::deque<QueuedJob> queue = {queued(0, 2, 24.0, 500.0),
                                  queued(1, 8, 24.0, 50.0)};  // too wide
  EXPECT_EQ(policy.pick_next(queue, cluster, {}, 0.0), 0u);
}

TEST(Sjf, TieBreaksTowardEarlierArrival) {
  SjfPolicy policy;
  FakeCluster cluster(24, 4, 32, 0);
  std::deque<QueuedJob> queue = {queued(0, 2, 24.0, 100.0),
                                  queued(1, 2, 24.0, 100.0)};
  EXPECT_EQ(policy.pick_next(queue, cluster, {}, 0.0), 0u);
}

TEST(Easy, StartsHeadWhenItFits) {
  EasyBackfillPolicy policy;
  FakeCluster cluster(24, 8, 32, 0);
  std::deque<QueuedJob> queue = {queued(0, 4, 24.0)};
  EXPECT_EQ(policy.pick_next(queue, cluster, {}, 0.0), 0u);
}

TEST(Easy, BackfillsShortJobBeforeShadowTime) {
  EasyBackfillPolicy policy;
  // Head needs 8 machines at >= 24; only 2 free now; a running job on 6
  // eligible machines ends at t=1000.
  FakeCluster cluster(24, 2, 32, 0);
  std::vector<RunningJobInfo> running = {{1000.0, 6, 24.0}};
  std::deque<QueuedJob> queue = {queued(0, 8, 24.0),
                                  queued(1, 2, 24.0, /*req_time=*/500.0)};
  // The candidate ends at 500 < shadow 1000: safe to backfill.
  EXPECT_EQ(policy.pick_next(queue, cluster, running, 0.0), 1u);
}

TEST(Easy, RefusesBackfillThatWouldDelayHead) {
  EasyBackfillPolicy policy;
  FakeCluster cluster(24, 2, 32, 0);
  std::vector<RunningJobInfo> running = {{1000.0, 6, 24.0}};
  // The candidate would run past the shadow time on head-eligible
  // machines, with zero spare at the shadow point (2 + 6 = 8 = head need).
  std::deque<QueuedJob> queue = {queued(0, 8, 24.0),
                                  queued(1, 2, 24.0, /*req_time=*/5000.0)};
  EXPECT_FALSE(policy.pick_next(queue, cluster, running, 0.0).has_value());
}

TEST(Easy, BackfillsLongJobIntoSpareNodes) {
  EasyBackfillPolicy policy;
  // 4 free now; head needs 8; running frees 6 at t=1000 -> 10 available,
  // 2 spare beyond the head's 8.
  FakeCluster cluster(24, 4, 32, 0);
  std::vector<RunningJobInfo> running = {{1000.0, 6, 24.0}};
  std::deque<QueuedJob> queue = {queued(0, 8, 24.0),
                                  queued(1, 2, 24.0, /*req_time=*/9999.0)};
  EXPECT_EQ(policy.pick_next(queue, cluster, running, 0.0), 1u);
}

TEST(Easy, BackfillsIntoMachinesBelowHeadCapacityClass) {
  EasyBackfillPolicy policy;
  // Head requires 32 MiB machines (0 free). Candidate fits entirely into
  // free 24 MiB machines the head can never use.
  FakeCluster cluster(24, 6, 32, 0);
  std::vector<RunningJobInfo> running = {{1000.0, 3, 32.0}};
  std::deque<QueuedJob> queue = {queued(0, 3, 32.0),
                                  queued(1, 4, 24.0, /*req_time=*/9999.0)};
  EXPECT_EQ(policy.pick_next(queue, cluster, running, 0.0), 1u);
}

TEST(Easy, UnsatisfiableHeadAllowsFreeBackfill) {
  EasyBackfillPolicy policy;
  // Head wants 20 machines at >= 32 but only 5 exist: no reservation is
  // possible, so anything that fits may run.
  FakeCluster cluster(24, 6, 32, 0);
  std::deque<QueuedJob> queue = {queued(0, 20, 32.0),
                                  queued(1, 4, 24.0, /*req_time=*/9999.0)};
  EXPECT_EQ(policy.pick_next(queue, cluster, {}, 0.0), 1u);
}

TEST(Easy, ReservationIgnoresRunningSetOrder) {
  // Two running jobs end together at t=1000 and free 2 + 5 head-eligible
  // machines; the head needs 6 of the 2 + 7 there will be, leaving 3
  // spare. Crediting them in either arrival order must give the same
  // spare count, so the 2-node long candidate backfills both ways.
  FakeCluster cluster(24, 2, 32, 0);
  std::deque<QueuedJob> queue = {queued(0, 6, 24.0),
                                  queued(1, 2, 24.0, /*req_time=*/9999.0)};
  std::vector<RunningJobInfo> running = {{1000.0, 2, 24.0}, {1000.0, 5, 24.0}};
  EasyBackfillPolicy forward;
  EXPECT_EQ(forward.pick_next(queue, cluster, running, 0.0), 1u);
  std::swap(running[0], running[1]);
  EasyBackfillPolicy reversed;
  EXPECT_EQ(reversed.pick_next(queue, cluster, running, 0.0), 1u);
  // The same instance, seeing the set reordered, must agree as well.
  EXPECT_EQ(forward.pick_next(queue, cluster, running, 0.0), 1u);
}

TEST(Easy, KeptByEndOrderMatchesAFreshPolicy) {
  // One policy keeps its by-end order across 20,000 running-set changes;
  // at every step a fresh policy sees the same set and must pick the
  // same job. Steps append or swap-remove, as the simulator does, and
  // sometimes duplicate an entry, reverse the set or empty it, which
  // the simulator never does. Every candidate requests the head's
  // vector, so rule (b) never applies and each pick rests on the shadow
  // time (rule a) or the spare-node count (rule c).
  const ResourceVector head_request(32.0, 8.0);
  // Three free machines cover the head; five smaller ones do not.
  FakeCluster cluster({{ResourceVector(16.0, 4.0), 5},
                       {ResourceVector(32.0, 8.0, 1.0), 3}});
  // The first two grants cover the head's request, the last two do not.
  const std::vector<ResourceVector> grants = {
      ResourceVector(32.0, 8.0), ResourceVector(64.0, 16.0, 1.0),
      ResourceVector(32.0, 4.0), ResourceVector(16.0, 8.0)};

  util::Rng rng(2026);
  // Expected ends on a 50 s grid, so equal ends (ties) are common.
  auto grid = [&](std::int64_t lo, std::int64_t hi) {
    return 50.0 * static_cast<double>(rng.uniform_int(lo, hi));
  };
  auto random_job = [&]() {
    return RunningJobInfo{
        grid(1, 30), static_cast<std::uint32_t>(rng.uniform_int(1, 4)),
        grants[static_cast<std::size_t>(rng.uniform_int(0, 3))]};
  };

  EasyBackfillPolicy kept;
  std::vector<RunningJobInfo> running;
  std::size_t waits = 0;
  std::size_t backfills = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::int64_t action = rng.uniform_int(0, 999);
    if (action < 480) {
      if (running.size() < 64) running.push_back(random_job());
    } else if (action < 940) {
      if (!running.empty()) {
        const auto pos = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(running.size()) - 1));
        running[pos] = running.back();
        running.pop_back();
      }
    } else if (action < 970) {
      if (!running.empty()) running.push_back(running.front());
    } else if (action < 998) {
      std::reverse(running.begin(), running.end());
    } else {
      running.clear();
    }

    // The head needs 4-16 machines and only 3 are free, so it waits.
    std::deque<QueuedJob> queue = {
        queued(0, static_cast<std::uint32_t>(rng.uniform_int(4, 16)),
               head_request)};
    for (std::size_t i = 1; i <= 3; ++i) {
      queue.push_back(
          queued(i, static_cast<std::uint32_t>(rng.uniform_int(1, 3)),
                 head_request, grid(1, 30)));
    }
    const Seconds now = grid(0, 5);

    EasyBackfillPolicy fresh;
    const auto expected = fresh.pick_next(queue, cluster, running, now);
    ASSERT_EQ(kept.pick_next(queue, cluster, running, now), expected)
        << "step " << step << ", " << running.size() << " running";
    ++(expected.has_value() ? backfills : waits);
  }
  // Both outcomes are common, so the picks do depend on the order.
  EXPECT_GT(waits, 2000u);
  EXPECT_GT(backfills, 2000u);
}

// --- the full resource vector ----------------------------------------------

/// Memory-rich, core-poor machines, then core-rich GPU machines.
std::vector<FakePool> cpu_gpu_pools(std::size_t small_free,
                                    std::size_t big_free) {
  return {{ResourceVector(32.0, 4.0, 0.0), small_free},
          {ResourceVector(32.0, 16.0, 2.0), big_free}};
}

TEST(FitsNow, ChecksEveryDimension) {
  FakeCluster cluster(cpu_gpu_pools(6, 1));
  EXPECT_TRUE(fits_now(queued(0, 7, ResourceVector(16.0, 2.0)), cluster));
  // Fits on memory everywhere, but only one free machine has 8 cores.
  EXPECT_FALSE(fits_now(queued(0, 2, ResourceVector(16.0, 8.0)), cluster));
  EXPECT_FALSE(
      fits_now(queued(0, 2, ResourceVector(16.0, 1.0, 1.0)), cluster));
}

TEST(Easy, HeadBlockedOnCpuLetsCpuLightJobBackfill) {
  // The head fits on memory (6 free 32 MiB machines) but needs 8 cores
  // on 2 machines, and only 1 core-rich machine is free; a running job
  // on another ends at t=1000, leaving no spare machine then. The
  // CPU-light candidate runs long, but the allocator places it on the
  // core-poor pool the head cannot use.
  FakeCluster cluster(cpu_gpu_pools(6, 1));
  const std::vector<RunningJobInfo> running = {
      {1000.0, 1, ResourceVector(32.0, 16.0, 2.0)}};
  std::deque<QueuedJob> queue = {
      queued(0, 2, ResourceVector(16.0, 8.0)),
      queued(1, 1, ResourceVector(8.0, 2.0), /*req_time=*/9999.0)};
  ASSERT_FALSE(fits_now(queue.front(), cluster));
  EasyBackfillPolicy easy;
  EXPECT_EQ(easy.pick_next(queue, cluster, running, 0.0), 1u);
  FcfsPolicy fcfs;
  EXPECT_FALSE(fcfs.pick_next(queue, cluster, running, 0.0).has_value());
}

TEST(Easy, RunningJobCountsOnlyWhenItsGrantCoversTheHead) {
  // Same head, but the running job's grant has too few cores: its
  // machines are not credited, the head has no reservation, and a long
  // core-hungry candidate (which would take the one free core-rich
  // machine) may run.
  FakeCluster cluster(cpu_gpu_pools(6, 1));
  const std::vector<RunningJobInfo> running = {
      {1000.0, 2, ResourceVector(32.0, 4.0, 0.0)}};
  std::deque<QueuedJob> queue = {
      queued(0, 2, ResourceVector(16.0, 8.0)),
      queued(1, 1, ResourceVector(8.0, 8.0), /*req_time=*/9999.0)};
  EasyBackfillPolicy easy;
  EXPECT_EQ(easy.pick_next(queue, cluster, running, 0.0), 1u);
  // Credited, the same running job gives the head its machines at
  // t=1000 with none to spare, and the candidate must wait.
  const std::vector<RunningJobInfo> covering = {
      {1000.0, 1, ResourceVector(32.0, 16.0, 2.0)}};
  EasyBackfillPolicy credited;
  EXPECT_FALSE(
      credited.pick_next(queue, cluster, covering, 0.0).has_value());
}

TEST(Policies, NeverPickAJobThatFitsOnMemoryButNotOnGpu) {
  // No free machine has a GPU. The GPU job is the shortest and would
  // end before the head's reservation, yet no policy may pick it.
  FakeCluster cluster(cpu_gpu_pools(6, 0));
  const std::vector<RunningJobInfo> running = {
      {1000.0, 2, ResourceVector(32.0, 16.0, 2.0)}};
  std::deque<QueuedJob> queue = {
      queued(0, 2, ResourceVector(16.0, 8.0), 500.0),
      queued(1, 2, ResourceVector(8.0, 1.0, 1.0), /*req_time=*/10.0)};
  EasyBackfillPolicy easy;
  EXPECT_FALSE(easy.pick_next(queue, cluster, running, 0.0).has_value());
  SjfPolicy sjf;
  EXPECT_FALSE(sjf.pick_next(queue, cluster, running, 0.0).has_value());

  // With a job behind it that does fit, both skip the GPU job.
  queue.push_back(queued(2, 2, ResourceVector(8.0, 1.0), 400.0));
  EXPECT_EQ(easy.pick_next(queue, cluster, running, 0.0), 2u);
  EXPECT_EQ(sjf.pick_next(queue, cluster, running, 0.0), 2u);
}

// --- against a real Cluster: rule (b) in the allocator's order -------------

struct BelowClassCase {
  sim::Cluster cluster;
  std::vector<RunningJobInfo> running;
  std::deque<QueuedJob> queue;
};

/// Four 8 MiB and four 32 MiB machines; a job on two of the 32 MiB ones
/// ends at t=1000. The head needs four 32 MiB machines; the candidate
/// needs two 8 MiB machines for 5000 s.
BelowClassCase below_class_case(sim::AllocationPolicy allocation) {
  BelowClassCase c{sim::Cluster({{8.0, 4}, {32.0, 4}}, allocation), {}, {}};
  EXPECT_TRUE(c.cluster.allocate(2, 32.0).has_value());
  c.running = {{1000.0, 2, ResourceVector(32.0)}};
  c.queue = {queued(0, 4, 32.0),
             queued(1, 2, 8.0, /*req_time=*/5000.0)};
  return c;
}

TEST(EasyWithCluster, WorstFitBackfillWouldDelayTheHead) {
  // Worst-fit places the candidate on the two free 32 MiB machines, so
  // at t=1000 the head would find only 2 of its 4 machines and wait
  // until t=5000. Rule (b) must follow the allocator's order and say no.
  BelowClassCase c = below_class_case(sim::AllocationPolicy::kWorstFit);
  EXPECT_EQ(c.cluster.eligible_free_before(ResourceVector(8.0),
                                           ResourceVector(32.0)),
            0u);
  EasyBackfillPolicy easy;
  EXPECT_FALSE(
      easy.pick_next(c.queue, c.cluster, c.running, 0.0).has_value());
}

TEST(EasyWithCluster, BestFitBackfillsBelowTheHeadsClass) {
  // Best-fit fills the 8 MiB machines first: the candidate never touches
  // the head's machines, so rule (b) lets it run long.
  BelowClassCase c = below_class_case(sim::AllocationPolicy::kBestFit);
  EXPECT_EQ(c.cluster.eligible_free_before(ResourceVector(8.0),
                                           ResourceVector(32.0)),
            4u);
  EasyBackfillPolicy easy;
  ASSERT_EQ(easy.pick_next(c.queue, c.cluster, c.running, 0.0), 1u);
  const auto placed = c.cluster.allocate(2, 8.0);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->min_capacity, 8.0);
  EXPECT_EQ(c.cluster.eligible_free(ResourceVector(32.0)), 2u);
}

TEST(PolicyFactory, BuildsAllNames) {
  for (const auto& name : policy_names()) {
    const auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(PolicyFactory, UnknownNameThrows) {
  EXPECT_THROW(make_policy("random"), std::invalid_argument);
}

}  // namespace
}  // namespace resmatch::sched
