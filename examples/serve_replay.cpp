// serve_replay: prove the online service layer is decision-equivalent to
// the offline simulator.
//
// Replays a CM5-calibrated workload through the discrete-event simulator
// twice — once against the offline successive-approximation estimator,
// once against a live svc::Matchd instance (estimator store, admission
// queue, worker pool) — and diffs the grant streams. Driven serially, the
// two must be byte-identical; this binary exits nonzero if they are not.
//
// Build & run:  ./build/examples/serve_replay [--jobs=N] [--workers=W]
//                                             [--batch-max=B]
//                                             [--metrics-out=PATH]
//                                             [--wal-dir=DIR]
//                                             [--crash-after=N] [--torn-tail]
//                                             [--fault-rate=P] [--fault-seed=S]
//
// --batch-max sets the worker drain batch size (1 = per-op, the
// pre-batching behavior). Driven serially, every batch size must produce
// the same byte-identical decision stream — the determinism gate runs
// this binary across batch sizes to enforce exactly that.
//
// --metrics-out writes a schema-v1 BENCH record (obs/bench_record.hpp)
// carrying the replay verdict plus the observability registry dump: the
// service run's matchd latency histograms and the simulator's engine
// metrics (the offline reference run is deliberately uninstrumented).
//
// --wal-dir enables the write-ahead log on the service run. --crash-after
// switches to the crash-recovery harness (sim::crash_replay): serve N
// jobs, crash, recover a fresh service from the WAL, finish the workload,
// and diff against an uninterrupted fault-free run. --fault-rate arms the
// deterministic injector (seeded by --fault-seed) on every retried site,
// with no site failing twice in a row, so injected faults are always
// recoverable.
#include <cstdio>
#include <string>

#include "obs/bench_record.hpp"
#include "obs/metrics.hpp"
#include "sim/serve_replay.hpp"
#include "trace/cm5_model.hpp"
#include "trace/transforms.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"

int main(int argc, char** argv) {
  using namespace resmatch;

  util::CliArgs cli(argc, argv);
  const auto jobs = static_cast<std::size_t>(
      cli.get("jobs", static_cast<std::int64_t>(8000)));
  const auto workers = static_cast<std::size_t>(
      cli.get("workers", static_cast<std::int64_t>(1)));
  const auto batch_max = static_cast<std::size_t>(
      cli.get("batch-max", static_cast<std::int64_t>(32)));
  const std::string metrics_out = cli.get("metrics-out", std::string{});
  const std::string wal_dir = cli.get("wal-dir", std::string{});
  const auto crash_after = cli.get("crash-after", static_cast<std::int64_t>(-1));
  const bool torn_tail = cli.get("torn-tail", false);
  const double fault_rate = cli.get("fault-rate", 0.0);
  const auto fault_seed = static_cast<std::uint64_t>(
      cli.get("fault-seed", static_cast<std::int64_t>(42)));

  // Outlives the service and both simulation runs. After serve_replay
  // returns, the service's pull providers are gone (removed by ~Matchd),
  // but its histograms and the simulator's engine series remain.
  obs::Registry registry;

  trace::Workload workload = trace::generate_cm5_small(/*seed=*/1, jobs);
  const sim::ClusterSpec cluster = sim::cm5_heterogeneous(24.0, 64);
  workload = trace::drop_wide_jobs(std::move(workload), 128);
  workload = trace::sort_by_submit(
      trace::scale_to_load(std::move(workload), 128, 1.0));

  util::FaultInjector injector(fault_seed);
  if (fault_rate > 0.0) {
    // Every injected fault must be recoverable by retry. A forced commit
    // attempt is a write and an fsync, two sites: with each capped at one
    // consecutive failure, a commit succeeds by its 4th attempt, inside
    // the default budget of 6. Worker-thread spawn is never retried (the
    // constructor rethrows it), so it stays disarmed.
    injector.arm_all(util::FaultSpec{fault_rate, /*max_consecutive=*/1});
    injector.arm(util::FaultSite::kThreadSpawn, util::FaultSpec{});
  }

  sim::ServeReplayConfig config;
  config.matchd.workers = workers;
  config.matchd.batch_max = batch_max;
  config.matchd.durability.wal_dir = wal_dir;
  if (fault_rate > 0.0) config.matchd.durability.faults = &injector;
  if (!metrics_out.empty()) {
    config.matchd.metrics = &registry;
    config.sim.metrics = &registry;
  }

  if (crash_after >= 0) {
    if (wal_dir.empty()) {
      std::fprintf(stderr, "FAIL: --crash-after requires --wal-dir\n");
      return 1;
    }
    sim::CrashReplayConfig crash_config;
    crash_config.matchd = config.matchd;
    crash_config.crash_after = static_cast<std::size_t>(crash_after);
    crash_config.torn_tail = torn_tail;
    const sim::CrashReplayResult crash =
        sim::crash_replay(workload, cluster, crash_config);
    std::printf("jobs replayed:     %zu\n", workload.jobs.size());
    std::printf("crash after:       %lld submissions%s\n",
                static_cast<long long>(crash_after),
                torn_tail ? " (torn tail)" : "");
    std::printf("recovered:         %zu snapshot rows + %llu WAL records "
                "(%llu files, %llu torn)\n",
                crash.recovery.snapshot_rows,
                static_cast<unsigned long long>(crash.recovery.wal_records),
                static_cast<unsigned long long>(crash.recovery.wal_files),
                static_cast<unsigned long long>(crash.recovery.torn_files));
    std::printf("decisions:         %zu\n", crash.decisions);
    std::printf("mismatches:        %zu\n", crash.mismatches);
    if (!crash.recovery_error.empty()) {
      std::fprintf(stderr, "FAIL: recovery failed: %s\n",
                   crash.recovery_error.c_str());
      return 1;
    }
    if (!crash.identical()) {
      std::fprintf(stderr,
                   "FAIL: recovered service diverged from fault-free run\n");
      for (const auto& d : crash.first_mismatches) {
        std::fprintf(stderr, "  job %llu: fault-free=%.6f recovered=%.6f\n",
                     static_cast<unsigned long long>(d.job_id),
                     d.offline_mib, d.service_mib);
      }
      return 1;
    }
    std::printf("\nOK: crash+recovery invisible in the decision stream\n");
    return 0;
  }

  const sim::ServeReplayResult result =
      sim::serve_replay(workload, cluster, config);

  std::printf("jobs replayed:     %zu\n", workload.jobs.size());
  std::printf("decisions:         %zu\n", result.decisions);
  std::printf("mismatches:        %zu\n", result.mismatches);
  std::printf("                   %-12s %-12s\n", "offline", "service");
  std::printf("utilization        %-12.6f %-12.6f\n",
              result.offline.utilization, result.service.utilization);
  std::printf("mean slowdown      %-12.4f %-12.4f\n",
              result.offline.mean_slowdown, result.service.mean_slowdown);
  std::printf("service groups:    %zu  (workers=%zu, async accepted=%llu)\n",
              result.stats.groups, workers,
              static_cast<unsigned long long>(result.stats.async_accepted));

  if (!metrics_out.empty()) {
    obs::BenchRecord record("serve_replay");
    record.config("jobs", static_cast<std::int64_t>(jobs));
    record.config("workers", static_cast<std::int64_t>(workers));
    record.config("batch_max", static_cast<std::int64_t>(batch_max));
    record.summary("decisions", static_cast<double>(result.decisions));
    record.summary("mismatches", static_cast<double>(result.mismatches));
    record.summary("utilization_offline", result.offline.utilization);
    record.summary("utilization_service", result.service.utilization);
    record.summary("submissions",
                   static_cast<double>(result.stats.submissions));
    record.summary("rewrites", static_cast<double>(result.stats.rewrites));
    record.summary("async_accepted",
                   static_cast<double>(result.stats.async_accepted));
    record.metrics(registry.snapshot());
    if (!record.write(metrics_out)) {
      std::fprintf(stderr, "FAIL: could not write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }

  if (!result.identical()) {
    std::fprintf(stderr, "FAIL: service diverged from offline simulator\n");
    for (const auto& d : result.first_mismatches) {
      std::fprintf(stderr, "  job %llu: offline=%.6f service=%.6f\n",
                   static_cast<unsigned long long>(d.job_id), d.offline_mib,
                   d.service_mib);
    }
    return 1;
  }
  std::printf("\nOK: service decisions identical to offline simulator\n");
  return 0;
}
