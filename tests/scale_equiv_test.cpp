// Cluster-scale engine equivalence gates.
//
// The loop that merges the arrival stream, the availability cursor and
// a job-end heap must make EXACTLY the decisions of the engine that
// pre-pushed every arrival into one heap, and streaming a trace must be
// invisible in the results. Both hold by pinned digests
// (tests/sim_golden.hpp) captured from that engine, which every entry
// point — materialized workload, JobStream, and simulate_mr at dims=1 —
// must reproduce.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim_golden.hpp"

namespace resmatch {
namespace {

using golden::golden_cluster;
using golden::golden_config;

/// Heap-engine digests of churn_config(2000 + trial, trial) under EASY
/// backfill with successive approximation.
constexpr std::uint64_t kChurnDigests[4] = {
    0x6900048B4B579EA2ULL, 0x1B417BA31C30BB57ULL, 0xFCC05ADAA1BD8240ULL,
    0xFB904F20027CBB9CULL};

/// cm5_small_config(11, 1000) under golden_config, EASY backfill + SA.
constexpr std::uint64_t kStreamedCm5Digest = 0x680A711141E638B0ULL;

/// The bench/micro_core --scale smoke config: 20k jobs, 2k machines.
constexpr std::uint64_t kScaleSmokeDigest = 0xB0B45A5D9E4C9EA6ULL;

TEST(ScaleEquivalence, RandomizedAvailabilityDigests) {
  const trace::Workload w = golden::churn_workload();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    golden::expect_every_entry_point(
        kChurnDigests[trial], w, golden_cluster(), "easy-backfill",
        "successive-approximation", golden::churn_config(2000 + trial, trial));
  }
}

TEST(ScaleEquivalence, StreamedCm5GenerationDigest) {
  // The full cluster-scale path: on-the-fly CM5 generation feeding the
  // engine must match the materialized model. Trace-level equality is
  // job_stream_test's business; this holds the composed DECISION stream.
  const trace::Cm5ModelConfig model = trace::cm5_small_config(11, 1000);
  const trace::Workload w = trace::generate_cm5(model);
  golden::expect_every_entry_point(kStreamedCm5Digest, w, golden_cluster(),
                                   "easy-backfill", "successive-approximation",
                                   golden_config());
  trace::Cm5JobStream stream(model);
  EXPECT_EQ(golden::run_stream(stream, golden_cluster(), "easy-backfill",
                               "successive-approximation", golden_config()),
            kStreamedCm5Digest);
}

TEST(ScaleEquivalence, ScaleSmokeConfigDigest) {
  const trace::Cm5ModelConfig model = golden::scale_model(20000, 2000);
  const trace::Workload w = trace::generate_cm5(model);
  const sim::ClusterSpec spec = golden::scale_cluster(2000);
  golden::expect_every_entry_point(kScaleSmokeDigest, w, spec, "fcfs",
                                   "successive-approximation",
                                   golden::scale_config());
  trace::Cm5JobStream stream(model);
  EXPECT_EQ(golden::run_stream(stream, spec, "fcfs",
                               "successive-approximation",
                               golden::scale_config()),
            kScaleSmokeDigest);
}

TEST(ScaleEquivalence, StreamedEntryPointRejectsUnsortedStreams) {
  trace::Workload w = golden::golden_workload();
  ASSERT_GE(w.jobs.size(), 2u);
  std::swap(w.jobs.front().submit, w.jobs.back().submit);
  trace::VectorJobStream stream(w);
  const auto est = core::make_estimator("none");
  const auto pol = sched::make_policy("fcfs");
  EXPECT_THROW(
      { (void)sim::simulate(stream, golden_cluster(), *est, *pol, {}); },
      std::invalid_argument);
}

}  // namespace
}  // namespace resmatch
