// Multi-resource building blocks: ResourceVector semantics, footprint
// math, the cluster's vector queries, the VectorEstimator's transparency
// and per-dimension routing, and the scenario_from mirror invariant.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/factory.hpp"
#include "core/multi_resource.hpp"
#include "sim/cluster.hpp"
#include "trace/cm5_model.hpp"
#include "trace/footprint.hpp"
#include "trace/scenario.hpp"
#include "util/resource_vector.hpp"

namespace resmatch {
namespace {

TEST(ResourceVector, CoversIsComponentWiseOverActiveDims) {
  const ResourceVector cap(32.0, 8.0, 2.0);
  EXPECT_TRUE(cap.covers(ResourceVector(32.0, 8.0, 2.0), 3));
  EXPECT_TRUE(cap.covers(ResourceVector(16.0, 4.0, 0.0), 3));
  EXPECT_FALSE(cap.covers(ResourceVector(16.0, 4.0, 4.0), 3));
  EXPECT_FALSE(cap.covers(ResourceVector(33.0, 0.0, 0.0), 3));
  // Dimensions past `dims` are ignored: a GPU demand is invisible at
  // dims=2, and only memory counts at dims=1.
  EXPECT_TRUE(cap.covers(ResourceVector(16.0, 4.0, 4.0), 2));
  EXPECT_TRUE(cap.covers(ResourceVector(32.0, 100.0, 100.0), 1));
  // Exact comparison, no epsilon — mirrors the scalar pool walk.
  EXPECT_FALSE(
      ResourceVector(32.0).covers(ResourceVector(32.0 + 1e-12), 1));
}

TEST(ResourceVector, AccessorsAndEquality) {
  ResourceVector v(24.0, 4.0, 1.0);
  EXPECT_EQ(v.mem(), 24.0);
  EXPECT_EQ(v.cpu(), 4.0);
  EXPECT_EQ(v.gpu(), 1.0);
  v[kDimGpu] = 2.0;
  EXPECT_EQ(v, ResourceVector(24.0, 4.0, 2.0));
  EXPECT_NE(v, ResourceVector(24.0, 4.0, 1.0));
  EXPECT_EQ(resource_dim_name(kDimMem), "mem");
  EXPECT_EQ(resource_dim_name(kDimCpu), "cpu");
  EXPECT_EQ(resource_dim_name(kDimGpu), "gpu");
}

TEST(Footprint, FlatIsAlwaysPeak) {
  const trace::FootprintProfile flat;  // default: kFlat
  EXPECT_EQ(flat.usage_at(0.0, 100.0, 8.0), 8.0);
  EXPECT_EQ(flat.usage_at(50.0, 100.0, 8.0), 8.0);
  // Flat overruns keep the paper's uniformly-drawn kill time: no
  // deterministic crossing even when the peak exceeds the grant.
  EXPECT_EQ(flat.first_crossing(4.0, 100.0, 8.0), std::nullopt);
}

TEST(Footprint, RampInterpolatesLinearly) {
  trace::FootprintProfile ramp;
  ramp.shape = trace::FootprintShape::kRamp;
  ramp.start_frac = 0.25;
  EXPECT_DOUBLE_EQ(ramp.usage_at(0.0, 100.0, 8.0), 2.0);
  EXPECT_DOUBLE_EQ(ramp.usage_at(50.0, 100.0, 8.0), 5.0);
  EXPECT_DOUBLE_EQ(ramp.usage_at(100.0, 100.0, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(ramp.usage_at(250.0, 100.0, 8.0), 8.0);
  // Crossing of grant 5.0 on the way to peak 8.0: frac (5/8 - 1/4)/(3/4)
  // of the runtime.
  const auto t = ramp.first_crossing(5.0, 100.0, 8.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 50.0);
  EXPECT_EQ(ramp.first_crossing(8.0, 100.0, 8.0), std::nullopt);
  // Already above the grant at t=0.
  EXPECT_DOUBLE_EQ(*ramp.first_crossing(1.0, 100.0, 8.0), 0.0);
}

TEST(Footprint, StepJumpsAtKnee) {
  trace::FootprintProfile step;
  step.shape = trace::FootprintShape::kStep;
  step.start_frac = 0.5;
  step.knee_frac = 0.4;
  EXPECT_DOUBLE_EQ(step.usage_at(0.0, 100.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(step.usage_at(39.0, 100.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(step.usage_at(40.0, 100.0, 10.0), 10.0);
  const auto t = step.first_crossing(6.0, 100.0, 10.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 40.0);
}

TEST(Footprint, PlateauReachesPeakAtKnee) {
  trace::FootprintProfile plateau;
  plateau.shape = trace::FootprintShape::kPlateau;
  plateau.start_frac = 0.0;
  plateau.knee_frac = 0.5;
  EXPECT_DOUBLE_EQ(plateau.usage_at(25.0, 100.0, 8.0), 4.0);
  EXPECT_DOUBLE_EQ(plateau.usage_at(50.0, 100.0, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(plateau.usage_at(75.0, 100.0, 8.0), 8.0);
  const auto t = plateau.first_crossing(4.0, 100.0, 8.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 25.0);
}

sim::ClusterSpec vector_spec() {
  return {{16.0, 4, 4.0, 0.0}, {24.0, 4, 8.0, 2.0}, {32.0, 2, 16.0, 4.0}};
}

TEST(ClusterVec, MergeKeyIncludesCpuAndGpu) {
  // Same memory capacity but different CPU/GPU stays two capacity
  // classes; identical vectors merge.
  sim::Cluster split({{16.0, 2, 4.0, 0.0}, {16.0, 3, 8.0, 0.0}});
  EXPECT_EQ(split.pool_count(), 2u);
  sim::Cluster merged({{16.0, 2, 4.0, 0.0}, {16.0, 3, 4.0, 0.0}});
  EXPECT_EQ(merged.pool_count(), 1u);
  EXPECT_EQ(merged.machine_count(), 5u);
}

TEST(ClusterVec, LadderForDimZeroIsTheMemoryLadder) {
  const sim::Cluster cluster(vector_spec());
  const auto mem = cluster.ladder();
  const auto dim0 = cluster.ladder_for_dim(kDimMem);
  EXPECT_EQ(dim0.rungs(), mem.rungs());
}

TEST(ClusterVec, HigherDimLaddersSkipUnprovisionedPools) {
  const sim::Cluster cluster(vector_spec());
  const auto cpu = cluster.ladder_for_dim(kDimCpu);
  EXPECT_EQ(cpu.rungs(), (std::vector<double>{4.0, 8.0, 16.0}));
  // The 16 MiB pool has no GPUs, so it adds no GPU rung.
  const auto gpu = cluster.ladder_for_dim(kDimGpu);
  EXPECT_EQ(gpu.rungs(), (std::vector<double>{2.0, 4.0}));
}

TEST(ClusterVec, MemoryOnlyRequestsCompareMemoryAlone) {
  // The policy view compares every dimension; a request whose CPU and GPU
  // coordinates are zero must count exactly what dims=1 counts.
  const sim::Cluster cluster(vector_spec());
  for (const double req : {0.0, 4.0, 16.0, 17.0, 24.0, 32.0, 33.0}) {
    EXPECT_EQ(cluster.eligible_free(ResourceVector(req)),
              cluster.eligible_free_vec(ResourceVector(req), 1));
    EXPECT_EQ(cluster.eligible_total_vec(ResourceVector(req), kMaxResourceDims),
              cluster.eligible_total_vec(ResourceVector(req), 1));
  }
}

TEST(ClusterVec, VectorEligibilityFiltersEveryDimension) {
  const sim::Cluster cluster(vector_spec());
  EXPECT_EQ(cluster.eligible_total_vec(ResourceVector(16.0, 4.0, 0.0), 3),
            10u);
  EXPECT_EQ(cluster.eligible_total_vec(ResourceVector(16.0, 8.0, 0.0), 3), 6u);
  EXPECT_EQ(cluster.eligible_total_vec(ResourceVector(16.0, 4.0, 1.0), 3), 6u);
  EXPECT_EQ(cluster.eligible_total_vec(ResourceVector(16.0, 4.0, 4.0), 3), 2u);
  EXPECT_EQ(cluster.eligible_total_vec(ResourceVector(33.0, 0.0, 0.0), 3), 0u);
}

TEST(ClusterVec, AllocateVecTakesOnlyCoveringPools) {
  sim::Cluster cluster(vector_spec());
  // One GPU demanded: the GPU-less 16 MiB pool must be skipped even
  // though its memory qualifies, so best-fit lands on the 24 MiB pool.
  const auto alloc = cluster.allocate_vec(3, ResourceVector(8.0, 2.0, 1.0), 3);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes, 3u);
  EXPECT_EQ(alloc->min_capacity, 24.0);
  EXPECT_EQ(cluster.busy_count(), 3u);
  cluster.release(*alloc);
  EXPECT_EQ(cluster.busy_count(), 0u);
}

TEST(ClusterVec, AllocateVecIsAllOrNothing) {
  sim::Cluster cluster(vector_spec());
  // Only 2 machines have 4 GPUs; asking for 3 must change nothing.
  EXPECT_FALSE(
      cluster.allocate_vec(3, ResourceVector(8.0, 2.0, 4.0), 3).has_value());
  EXPECT_EQ(cluster.busy_count(), 0u);
}

TEST(ClusterVec, AllocateVecMatchesScalarAtDimsOne) {
  sim::Cluster a(vector_spec());
  sim::Cluster b(vector_spec());
  for (const double req : {4.0, 16.0, 20.0, 24.0, 32.0}) {
    const auto scalar = a.allocate(2, req);
    const auto vec = b.allocate_vec(2, ResourceVector(req), 1);
    ASSERT_EQ(scalar.has_value(), vec.has_value()) << "req " << req;
    if (!scalar) continue;
    EXPECT_EQ(scalar->min_capacity, vec->min_capacity);
    EXPECT_EQ(scalar->nodes, vec->nodes);
    ASSERT_EQ(scalar->pool_counts.size(), vec->pool_counts.size());
    for (std::size_t i = 0; i < scalar->pool_counts.size(); ++i) {
      EXPECT_EQ(scalar->pool_counts[i].pool_index,
                vec->pool_counts[i].pool_index);
      EXPECT_EQ(scalar->pool_counts[i].count, vec->pool_counts[i].count);
    }
  }
}

trace::JobRecord sample_job() {
  trace::JobRecord job;
  job.id = 1;
  job.submit = 0.0;
  job.runtime = 100.0;
  job.requested_time = 120.0;
  job.nodes = 2;
  job.requested_mem_mib = 32.0;
  job.used_mem_mib = 10.0;
  job.user = 3;
  job.app = 5;
  return job;
}

TEST(VectorEstimator, RejectsBadDims) {
  core::VectorEstimatorConfig cfg;
  cfg.dims = 0;
  EXPECT_THROW({ core::VectorEstimator e(cfg); }, std::invalid_argument);
  cfg.dims = kMaxResourceDims + 1;
  EXPECT_THROW({ core::VectorEstimator e(cfg); }, std::invalid_argument);
}

TEST(VectorEstimator, DimsOneIsTransparentOverTheScalarEstimator) {
  // The dims=1 VectorEstimator must be bit-for-bit the scalar estimator
  // it wraps: same estimates, same previews, same epochs, through an
  // estimate/feedback sequence that exercises the group state.
  const sim::Cluster cluster(vector_spec());
  core::VectorEstimatorConfig cfg;
  cfg.dims = 1;
  cfg.estimator = "successive-approximation";
  core::VectorEstimator vec(cfg);
  vec.set_ladder(0, cluster.ladder_for_dim(0));
  auto scalar = core::make_estimator("successive-approximation");
  scalar->set_ladder(cluster.ladder());

  trace::JobRecord job = sample_job();
  const ResourceVector requested(job.requested_mem_mib);
  const core::SystemState state;
  // The vector side keeps the job's handle; the scalar side takes the
  // record forms, which look the group up on every call.
  std::array<core::GroupHandle, 1> groups{};
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(vec.preview(job, requested, groups, state)[kDimMem],
              scalar->preview(job, state));
    EXPECT_EQ(vec.preview_epoch(job, requested, groups),
              scalar->preview_epoch(job));
    const ResourceVector vgrant = vec.estimate(job, requested, groups, state);
    const MiB sgrant = scalar->estimate(job, state);
    ASSERT_EQ(vgrant[kDimMem], sgrant) << "round " << round;
    EXPECT_TRUE(groups[0].resolved());

    core::VectorFeedback vfb;
    vfb.granted = vgrant;
    vfb.explicit_feedback = true;
    vfb.success = vgrant[kDimMem] + 1e-9 >= job.used_mem_mib;
    vfb.used = ResourceVector(job.used_mem_mib);
    vfb.dim_failure[kDimMem] = !vfb.success;
    vec.feedback(job, requested, groups, vfb);

    core::Feedback sfb;
    sfb.granted_mib = sgrant;
    sfb.success = vfb.success;
    sfb.used_mib = job.used_mem_mib;
    sfb.resource_failure = !vfb.success;
    scalar->feedback(job, sfb);
  }
}

TEST(VectorEstimator, RoutesEachDimensionToItsOwnScalarReference) {
  // dims=2 against two independently-driven scalar estimators: dimension 0
  // sees the record unchanged, dimension 1 sees a shim whose memory fields
  // carry the CPU coordinates.
  const sim::Cluster cluster(vector_spec());
  core::VectorEstimatorConfig cfg;
  cfg.dims = 2;
  cfg.estimator = "last-instance";
  core::VectorEstimator vec(cfg);
  vec.set_ladder(0, cluster.ladder_for_dim(0));
  vec.set_ladder(1, cluster.ladder_for_dim(1));

  auto ref_mem = core::make_estimator("last-instance");
  ref_mem->set_ladder(cluster.ladder_for_dim(0));
  auto ref_cpu = core::make_estimator("last-instance");
  ref_cpu->set_ladder(cluster.ladder_for_dim(1));

  trace::JobRecord job = sample_job();
  const ResourceVector requested(32.0, 8.0);
  trace::JobRecord cpu_job = job;
  cpu_job.requested_mem_mib = requested[kDimCpu];
  cpu_job.used_mem_mib = 0.0;

  const core::SystemState state;
  const ResourceVector used(10.0, 3.0);
  std::array<core::GroupHandle, 2> groups{};
  for (int round = 0; round < 4; ++round) {
    const ResourceVector grant = vec.estimate(job, requested, groups, state);
    EXPECT_EQ(grant[kDimMem], ref_mem->estimate(job, state));
    EXPECT_EQ(grant[kDimCpu], ref_cpu->estimate(cpu_job, state));

    core::VectorFeedback vfb;
    vfb.success = true;
    vfb.granted = grant;
    vfb.explicit_feedback = true;
    vfb.used = used;
    vec.feedback(job, requested, groups, vfb);
    core::Feedback mem_fb{true, grant[kDimMem], used[kDimMem], false};
    ref_mem->feedback(job, mem_fb);
    core::Feedback cpu_fb{true, grant[kDimCpu], used[kDimCpu], false};
    ref_cpu->feedback(cpu_job, cpu_fb);
  }
}

TEST(VectorEstimator, PreviewEpochCombinesAcrossDims) {
  core::VectorEstimatorConfig cfg;
  cfg.dims = 3;
  cfg.estimator = "none";
  const core::VectorEstimator vec(cfg);
  const trace::JobRecord job = sample_job();
  std::array<core::GroupHandle, 3> groups{};
  EXPECT_TRUE(vec.preview_epoch(job, ResourceVector(32.0, 4.0, 1.0), groups)
                  .has_value());

  // An estimator that declines to memoize in any dimension poisons the
  // combined epoch.
  core::VectorEstimatorConfig ridge;
  ridge.dims = 3;
  ridge.estimator = "regression-ridge";
  const core::VectorEstimator no_memo(ridge);
  EXPECT_FALSE(
      no_memo.preview_epoch(job, ResourceVector(32.0, 4.0, 1.0), groups)
          .has_value());
}

TEST(VectorEstimator, KeptHandlesMatchFreshHandlesAtThreeDims) {
  // Two dims=3 SA estimators over the same call sequence: one keeps each
  // job's three handles, the other passes fresh (unresolved) handles to
  // every call, which is the record-form lookup. Dimensions 1 and 2 see
  // the shim record, so this covers the handle on the shimmed path too.
  const sim::Cluster cluster(vector_spec());
  core::VectorEstimatorConfig cfg;
  cfg.dims = 3;
  cfg.estimator = "successive-approximation";
  core::VectorEstimator kept(cfg);
  core::VectorEstimator fresh(cfg);
  for (std::size_t d = 0; d < 3; ++d) {
    kept.set_ladder(d, cluster.ladder_for_dim(d));
    fresh.set_ladder(d, cluster.ladder_for_dim(d));
  }

  // Three jobs, two of which share every dimension's group.
  std::vector<trace::JobRecord> jobs(3, sample_job());
  jobs[2].user = 4;
  const std::vector<ResourceVector> requested = {
      ResourceVector(32.0, 8.0, 2.0), ResourceVector(32.0, 8.0, 2.0),
      ResourceVector(24.0, 4.0, 1.0)};
  const ResourceVector used(9.0, 3.0, 1.0);
  std::vector<std::array<core::GroupHandle, 3>> handles(jobs.size());
  std::array<core::GroupHandle, 3> scratch{};
  auto unresolved = [&scratch]() -> std::span<core::GroupHandle> {
    scratch = {};
    return scratch;
  };
  const core::SystemState state;
  for (int round = 0; round < 5; ++round) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      SCOPED_TRACE("round " + std::to_string(round) + " job " +
                   std::to_string(j));
      EXPECT_EQ(kept.preview(jobs[j], requested[j], handles[j], state),
                fresh.preview(jobs[j], requested[j], unresolved(), state));
      EXPECT_EQ(kept.preview_epoch(jobs[j], requested[j], handles[j]),
                fresh.preview_epoch(jobs[j], requested[j], unresolved()));
      const ResourceVector grant =
          kept.estimate(jobs[j], requested[j], handles[j], state);
      ASSERT_EQ(grant,
                fresh.estimate(jobs[j], requested[j], unresolved(), state));
      if (round == 2) {
        // An attempt that never ran: both sides give the probe slot back.
        kept.cancel(jobs[j], requested[j], handles[j], grant);
        fresh.cancel(jobs[j], requested[j], unresolved(), grant);
        continue;
      }
      core::VectorFeedback fb;
      fb.granted = grant;
      fb.explicit_feedback = true;
      fb.used = used;
      fb.success = grant.covers(used, 3);
      for (std::size_t d = 0; d < 3; ++d) {
        fb.dim_failure[d] = grant[d] + 1e-9 < used[d];
      }
      kept.feedback(jobs[j], requested[j], handles[j], fb);
      fresh.feedback(jobs[j], requested[j], unresolved(), fb);
      for (const core::GroupHandle& h : handles[j]) {
        EXPECT_TRUE(h.resolved());
      }
    }
  }
}

TEST(VectorEstimator, ReportsExplicitFeedbackRequirement) {
  core::VectorEstimatorConfig cfg;
  cfg.dims = 1;
  cfg.estimator = "quantile";
  EXPECT_TRUE(core::VectorEstimator(cfg).requires_explicit_feedback());
  cfg.estimator = "successive-approximation";
  EXPECT_FALSE(core::VectorEstimator(cfg).requires_explicit_feedback());
}

TEST(Scenario, ScenarioFromMirrorsMemoryAndStaysFlat) {
  const trace::Workload w = trace::generate_cm5_small(17, 300);
  const trace::ScenarioWorkload scenario = trace::scenario_from(w);
  EXPECT_EQ(scenario.dims, 1u);
  ASSERT_EQ(scenario.mr.size(), w.jobs.size());
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    EXPECT_EQ(scenario.mr[i].requested[kDimMem], w.jobs[i].requested_mem_mib);
    EXPECT_EQ(scenario.mr[i].used_peak[kDimMem], w.jobs[i].used_mem_mib);
    EXPECT_EQ(scenario.mr[i].requested[kDimCpu], 0.0);
    EXPECT_EQ(scenario.mr[i].requested[kDimGpu], 0.0);
    EXPECT_EQ(scenario.mr[i].profile.shape, trace::FootprintShape::kFlat);
  }
}

}  // namespace
}  // namespace resmatch
