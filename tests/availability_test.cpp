// Tests for dynamic machine availability: pool add/remove/drain semantics
// and the simulator's capacity-integral accounting (paper §1: machines
// join and leave the system at any time).
#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "sched/factory.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"
#include "trace/cm5_model.hpp"
#include "trace/transforms.hpp"

namespace resmatch::sim {
namespace {

TEST(Availability, AddMachinesGrowsPool) {
  Cluster cluster({{32.0, 4}});
  cluster.add_machines(32.0, 2);
  EXPECT_EQ(cluster.machine_count(), 6u);
  EXPECT_EQ(cluster.eligible_free(32.0), 6u);
}

TEST(Availability, AddUnknownCapacityThrows) {
  Cluster cluster({{32.0, 4}});
  EXPECT_THROW(cluster.add_machines(16.0, 2), std::invalid_argument);
  EXPECT_THROW(cluster.remove_machines(16.0, 2), std::invalid_argument);
}

TEST(Availability, AmbiguousCapacityThrows) {
  // Same memory, different GPU: two capacity classes that a memory-only
  // availability event cannot tell apart. Neither pool may be resized.
  Cluster cluster({{32.0, 4, 8.0, 0.0}, {32.0, 4, 8.0, 4.0}});
  ASSERT_EQ(cluster.pool_count(), 2u);
  EXPECT_THROW(cluster.add_machines(32.0, 2), std::invalid_argument);
  EXPECT_THROW(cluster.remove_machines(32.0, 2), std::invalid_argument);
  EXPECT_EQ(cluster.machine_count(), 8u);
  EXPECT_EQ(cluster.pool_counters(0).present, 4u);
  EXPECT_EQ(cluster.pool_counters(1).present, 4u);
}

TEST(Availability, RemoveFreeMachinesIsImmediate) {
  Cluster cluster({{32.0, 4}});
  cluster.remove_machines(32.0, 3);
  EXPECT_EQ(cluster.machine_count(), 1u);
  EXPECT_EQ(cluster.eligible_free(32.0), 1u);
  EXPECT_EQ(cluster.draining_count(), 0u);
}

TEST(Availability, RemoveBusyMachinesDrains) {
  Cluster cluster({{32.0, 4}});
  const auto alloc = cluster.allocate(3, 32.0);
  ASSERT_TRUE(alloc.has_value());
  // 1 free, 3 busy; remove 2: the free one leaves now, one busy drains.
  cluster.remove_machines(32.0, 2);
  EXPECT_EQ(cluster.machine_count(), 2u);
  EXPECT_EQ(cluster.eligible_free(32.0), 0u);
  EXPECT_EQ(cluster.draining_count(), 1u);
  // Releasing the job pays the drain debt first: only 2 become free.
  cluster.release(*alloc);
  EXPECT_EQ(cluster.draining_count(), 0u);
  EXPECT_EQ(cluster.eligible_free(32.0), 2u);
  EXPECT_EQ(cluster.busy_count(), 0u);
}

TEST(Availability, RemoveMoreThanExistsClamps) {
  Cluster cluster({{32.0, 4}});
  cluster.remove_machines(32.0, 100);
  EXPECT_EQ(cluster.machine_count(), 0u);
  EXPECT_EQ(cluster.eligible_total(0.0), 0u);
}

TEST(Availability, RoundTripAddRemovePreservesInvariants) {
  Cluster cluster({{32.0, 8}, {16.0, 8}});
  const auto alloc = cluster.allocate(6, 16.0);
  ASSERT_TRUE(alloc.has_value());
  cluster.remove_machines(16.0, 8);
  cluster.add_machines(32.0, 4);
  cluster.release(*alloc);
  // All still-owned machines end up free.
  EXPECT_EQ(cluster.busy_count(), 0u);
  EXPECT_EQ(cluster.eligible_free(0.0), cluster.machine_count());
}

trace::JobRecord job_at(JobId id, Seconds submit, Seconds runtime,
                        std::uint32_t nodes) {
  trace::JobRecord j;
  j.id = id;
  j.submit = submit;
  j.runtime = runtime;
  j.nodes = nodes;
  j.requested_mem_mib = 32;
  j.used_mem_mib = 8;
  j.user = 1;
  j.app = 1;
  j.requested_time = runtime;
  return j;
}

SimulationResult run_with_availability(
    const trace::Workload& w, const ClusterSpec& spec,
    std::vector<AvailabilityEvent> events) {
  auto est = core::make_estimator("none");
  auto pol = sched::make_policy("fcfs");
  SimulationConfig cfg;
  cfg.availability = std::move(events);
  return simulate(w, spec, *est, *pol, cfg);
}

TEST(AvailabilitySim, CapacityIntegralReflectsShrink) {
  // 8 machines for the first 100s, 4 thereafter. One 4-node job runs
  // 0-100, another 100-200.
  trace::Workload w;
  w.jobs = {job_at(1, 0, 100, 4), job_at(2, 100, 100, 4)};
  const auto result = run_with_availability(
      w, {{32.0, 8}}, {{100.0, 32.0, -4}});
  EXPECT_EQ(result.completed, 2u);
  // Productive 800 node-seconds over (8*100 + 4*100) = 1200.
  EXPECT_NEAR(result.utilization, 800.0 / 1200.0, 1e-9);
}

TEST(AvailabilitySim, CapacityIntegralReflectsGrowth) {
  trace::Workload w;
  w.jobs = {job_at(1, 0, 100, 4), job_at(2, 100, 100, 4)};
  const auto result = run_with_availability(
      w, {{32.0, 4}}, {{100.0, 32.0, 4}});
  EXPECT_EQ(result.completed, 2u);
  // 400 + 400 productive over (4*100 + 8*100).
  EXPECT_NEAR(result.utilization, 800.0 / 1200.0, 1e-9);
}

TEST(AvailabilitySim, JobsQueueWhileCapacityGone) {
  // Capacity drops to zero machines free at t=50 (all 4 already busy
  // drain away), then 4 fresh machines join at t=300.
  trace::Workload w;
  w.jobs = {job_at(1, 0, 100, 4), job_at(2, 10, 50, 4)};
  const auto result = run_with_availability(
      w, {{32.0, 4}},
      {{50.0, 32.0, -4}, {300.0, 32.0, 4}});
  EXPECT_EQ(result.completed, 2u);
  // Job 2 could only start once machines rejoined at t=300.
  EXPECT_GT(result.mean_wait, 100.0);
}

TEST(AvailabilitySim, ShrinkCanMakeQueuedJobUnschedulable) {
  trace::Workload w;
  // Job 2 needs 8 nodes; after the shrink only 4 exist, forever.
  w.jobs = {job_at(1, 0, 100, 4), job_at(2, 10, 100, 8)};
  const auto result = run_with_availability(
      w, {{32.0, 8}}, {{5.0, 32.0, -4}});
  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.dropped_unschedulable, 1u);
}

TEST(AvailabilitySim, ZeroDeltaEventKeepsPendingAdditionPending) {
  // Regression: a no-op event ahead of the one real addition used to
  // consume the pending-addition count, so the 4-node job waiting for
  // the two extra machines looked unschedulable and was dropped.
  trace::Workload w;
  w.jobs = {job_at(1, 10, 100, 4)};
  const auto result = run_with_availability(
      w, {{32.0, 2}}, {{5.0, 32.0, 0}, {100.0, 32.0, 2}});
  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.dropped_unschedulable, 0u);
}

TEST(AvailabilitySim, EstimationStillHelpsOnElasticCluster) {
  // Heterogeneous elastic cluster: the 24 MiB pool disappears mid-trace
  // and returns; estimation must keep its advantage and lose no jobs.
  trace::Workload base = trace::generate_cm5_small(21, 2000);
  base = trace::drop_wide_jobs(std::move(base), 64);
  base = trace::sort_by_submit(
      trace::scale_to_load(std::move(base), 128, 0.9));
  const Seconds third = base.span() / 3.0;
  const std::vector<AvailabilityEvent> churn = {
      {third, 24.0, -32}, {2.0 * third, 24.0, 32}};

  auto run = [&](const std::string& estimator) {
    auto est = core::make_estimator(estimator);
    auto pol = sched::make_policy("fcfs");
    SimulationConfig cfg;
    cfg.availability = churn;
    return simulate(base, sim::cm5_heterogeneous(24.0, 64), *est, *pol, cfg);
  };
  const auto with_est = run("successive-approximation");
  const auto without = run("none");
  EXPECT_EQ(with_est.completed + with_est.dropped_unschedulable +
                with_est.dropped_attempt_cap,
            with_est.submitted);
  EXPECT_GE(with_est.utilization, without.utilization);
}

}  // namespace
}  // namespace resmatch::sim
