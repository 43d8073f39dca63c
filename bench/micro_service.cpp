// micro_service: throughput scaling of the matchd service layer.
//
// Drives a svc::Matchd instance from 1..16 client threads, each running a
// closed loop of submit -> feedback over a CM5-like population of
// similarity groups, and reports jobs/sec per worker count plus the
// speedup over single-threaded. The synchronous path (clients call the
// thread-safe API directly; scaling comes from the store's shard
// striping) is measured twice — uninstrumented, then with an
// obs::Registry attached — so the overhead of the metrics layer is a
// printed column, not a guess. A third series routes the same load
// through the admission queue + worker pool to show the pipeline's
// overhead and its backpressure counters.
//
//   ./build/bench/micro_service [--jobs=N] [--groups=G] [--csv=PATH]
//                               [--metrics-out=PATH] [--max-threads=T]
//                               [--wal-dir=DIR] [--wal-fsync-every=N]
//                               [--fault-rate=P] [--fault-seed=S]
//                               [--batch-max=B] [--batch-compare=PATH]
//
// --jobs is the per-thread operation count (default 200000).
// --metrics-out writes a schema-v1 BENCH record (see obs/bench_record.hpp)
// with p50/p99 submit latency, jobs/sec, instrumentation overhead, and
// the full registry dump of the widest instrumented run.
// --wal-dir prices durability: every measured service writes its WAL to a
// fresh subdirectory of DIR, so the throughput columns become with-WAL
// numbers directly comparable to a run without the flag. --fault-rate arms
// the deterministic injector (see bench/micro_faults.cpp for the targeted
// fault-path microbench).
// --batch-max sets the worker drain batch size for the queued series.
// --batch-compare=PATH runs the batching perf-smoke instead of the scaling
// series: the WAL-backed queued pipeline at batch_max=1 vs batch_max=64
// (same durability guarantee — one forced fsync commit point per batch —
// so the ratio is the fsync/lock amortization win), plus the compiled
// bytecode matcher vs the tree-walking evaluator over a 4096-machine
// table, written to PATH as a schema-v1 BENCH record.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/capacity_ladder.hpp"
#include "match/classad.hpp"
#include "match/compiled.hpp"
#include "obs/bench_record.hpp"
#include "obs/metrics.hpp"
#include "svc/matchd.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/fault.hpp"

namespace {

using namespace resmatch;

/// Durability template applied to every measured service (wal_dir empty =
/// durability off, the default). Each run gets a fresh subdirectory so no
/// run replays or appends to another's log.
svc::DurabilityConfig g_durability;

/// Worker drain batch size for queued (async) runs.
std::size_t g_batch_max = 32;

/// Backpressure handling for queued runs. The scaling series falls back
/// to the synchronous API on kFull (a client that must make progress);
/// the batch-compare mode spins instead, so the measured number is the
/// queued pipeline's throughput, not a blend of the two paths.
bool g_spin_on_full = false;

svc::DurabilityConfig durability_for_run() {
  static std::atomic<std::uint64_t> next_run{0};
  svc::DurabilityConfig d = g_durability;
  if (!d.wal_dir.empty()) {
    d.wal_dir += "/run-" + std::to_string(
        next_run.fetch_add(1, std::memory_order_relaxed));
  }
  return d;
}

trace::JobRecord make_job(std::uint64_t n, std::size_t groups) {
  trace::JobRecord job;
  job.id = n;
  job.user = static_cast<UserId>(n % groups);
  job.app = static_cast<AppId>((n / groups) % 17);
  job.requested_mem_mib = 32.0;
  job.used_mem_mib = 4.0 + static_cast<double>(n % 7);
  job.nodes = 1;
  job.runtime = 60.0;
  return job;
}

core::Feedback outcome_for(const trace::JobRecord& job, MiB granted) {
  core::Feedback fb;
  fb.success = granted + 1e-9 >= job.used_mem_mib;
  fb.granted_mib = granted;
  return fb;
}

/// One closed-loop client: submit + feedback, `ops` times.
void run_client(svc::Matchd& service, std::size_t thread_index,
                std::size_t ops, std::size_t groups, bool async) {
  for (std::size_t i = 0; i < ops; ++i) {
    const trace::JobRecord job = make_job(thread_index * ops + i, groups);
    if (async) {
      // The decision callback re-enters the admission queue so feedback
      // rides the batched WAL commit point too; under backpressure it
      // degrades to the synchronous call, as a real client would.
      const auto on_decision = [&service, job](const svc::MatchDecision& d) {
        const core::Feedback fb = outcome_for(job, d.granted_mib);
        if (service.feedback_async(svc::JobOutcome{job, fb}) !=
            svc::PushResult::kOk) {
          service.feedback(job, fb);
        }
      };
      auto pushed = service.submit_async(job, on_decision);
      while (g_spin_on_full && pushed == svc::PushResult::kFull) {
        std::this_thread::yield();
        pushed = service.submit_async(job, on_decision);
      }
      if (pushed != svc::PushResult::kOk) {
        // Backpressure: do the work inline, as a real client would retry.
        const auto decision = service.submit(job);
        service.feedback(job, outcome_for(job, decision.granted_mib));
      }
    } else {
      const auto decision = service.submit(job);
      service.feedback(job, outcome_for(job, decision.granted_mib));
    }
  }
}

struct Sample {
  std::size_t threads = 0;
  double jobs_per_sec = 0.0;
  std::uint64_t rejected = 0;
  /// Submit-latency percentiles (µs), instrumented runs only.
  double submit_p50_us = 0.0;
  double submit_p99_us = 0.0;
};

/// `registry` non-null = attach the observability layer to the run. The
/// snapshot is taken while the service is alive so the pull providers
/// (queue depth, store occupancy) are still registered.
Sample measure(std::size_t threads, std::size_t ops_per_thread,
               std::size_t groups, bool async, obs::Registry* registry,
               obs::MetricsSnapshot* snapshot_out = nullptr) {
  svc::MatchdConfig config;
  config.store.shards = 64;
  config.queue_capacity = 4096;
  config.workers = async ? threads : 0;
  config.batch_max = g_batch_max;
  config.metrics = registry;
  config.durability = durability_for_run();
  svc::Matchd service(config);
  service.set_ladder(
      core::CapacityLadder({4.0, 8.0, 16.0, 24.0, 32.0, 64.0, 128.0}));

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      clients.emplace_back(run_client, std::ref(service), t, ops_per_thread,
                           groups, async);
    }
    for (auto& c : clients) c.join();
    if (async) service.drain();
  }
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Sample s;
  s.threads = threads;
  s.jobs_per_sec =
      static_cast<double>(threads * ops_per_thread) / elapsed;
  s.rejected = service.stats().async_rejected_full;
  if (registry != nullptr) {
    const obs::MetricsSnapshot snap = registry->snapshot();
    if (const auto* m = snap.find("resmatch_matchd_op_latency_seconds",
                                  {{"op", "submit"}})) {
      s.submit_p50_us = m->histogram.percentile(50.0) * 1e6;
      s.submit_p99_us = m->histogram.percentile(99.0) * 1e6;
    }
    if (snapshot_out != nullptr) *snapshot_out = snap;
  }
  return s;
}

/// A CM5-flavored machine-ad population for the matcher benchmark: mixed
/// memory/cpu shapes, two architectures, a minority of machines with
/// their own requirements (three distinct sources -> three compiled
/// groups plus the unconstrained group).
std::vector<match::ClassAd> make_machines(std::size_t count) {
  std::vector<match::ClassAd> machines;
  machines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    match::ClassAd m;
    m.set("memory", static_cast<double>(4 << (i % 6)));
    m.set("cpus", static_cast<double>(1 + i % 8));
    m.set("load", static_cast<double>(i % 10) / 10.0);
    m.set("arch", match::Value(i % 3 == 0 ? std::string("arm64")
                                          : std::string("x86_64")));
    if (i % 4 == 1) {
      m.set_expr("requirements", "other.owner_prio >= 1");
    } else if (i % 4 == 2) {
      m.set_expr("requirements", "other.req_memory <= my.memory * 2");
    } else if (i % 16 == 3) {
      m.set_expr("requirements", "other.owner_prio >= 1 && load < 0.9");
    }
    machines.push_back(std::move(m));
  }
  return machines;
}

struct MatcherSample {
  double interp_rows_per_sec = 0.0;
  /// SIMD prefilter (the default), table build amortized over the passes.
  double compiled_rows_per_sec = 0.0;
  /// Same pipeline with the scalar kernel, table build amortized too.
  double scalar_rows_per_sec = 0.0;
  /// Scalar over SIMD per-pass time; the table build is in neither arm.
  double simd_speedup = 0.0;
  double table_build_ms = 0.0;
  std::uint64_t fallback_rows = 0;
  std::uint64_t prefiltered_rows = 0;  ///< per pass, SIMD run
  std::size_t matched = 0;  ///< sanity: all paths must agree
};

MatcherSample measure_matcher(std::size_t machine_count, int passes) {
  const std::vector<match::ClassAd> machines = make_machines(machine_count);
  match::ClassAd request;
  request.set("req_memory", 16.0);
  request.set("owner_prio", 2.0);
  request.set_expr("requirements",
                   "other.memory >= my.req_memory && other.arch == "
                   "\"x86_64\" && other.cpus >= 2");
  request.set_expr("rank", "other.memory * (1 - other.load)");

  const auto seconds_since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t)
        .count();
  };

  MatcherSample sample;
  std::vector<std::size_t> interp_ranked;
  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    interp_ranked = match::rank_matches(request, machines);
  }
  const double interp_s = seconds_since(t0);

  // The table is built once per machine set and timed on its own; each
  // pass compiles the request and ranks every row. The SIMD-prefilter
  // (default) and scalar-kernel arms interleave per pass, alternating
  // which goes first, so neither host load drift nor cache warmth from
  // the other arm can masquerade as a kernel delta.
  const auto t1 = std::chrono::steady_clock::now();
  const match::MachineTable table = match::MachineTable::build(machines);
  const double build_s = seconds_since(t1);
  std::vector<std::size_t> compiled_ranked;
  std::vector<std::size_t> scalar_ranked;
  match::CompiledMatcher::Stats stats;
  double compiled_s = 0.0;
  double scalar_s = 0.0;
  const auto run_simd = [&] {
    const auto a = std::chrono::steady_clock::now();
    compiled_ranked = match::rank_matches_compiled(request, table, &stats);
    compiled_s += seconds_since(a);
  };
  const auto run_scalar = [&] {
    const auto a = std::chrono::steady_clock::now();
    match::CompiledMatcher matcher(request, table);
    matcher.set_simd_enabled(false);
    scalar_ranked = matcher.rank_all();
    scalar_s += seconds_since(a);
  };
  for (int p = 0; p < passes; ++p) {
    if (p % 2 == 0) {
      run_simd();
      run_scalar();
    } else {
      run_scalar();
      run_simd();
    }
  }

  if (compiled_ranked != interp_ranked) {
    std::fprintf(stderr,
                 "FATAL: compiled matcher diverged from the tree walker\n");
    std::exit(1);
  }
  if (scalar_ranked != interp_ranked) {
    std::fprintf(
        stderr,
        "FATAL: scalar-prefilter matcher diverged from the tree walker\n");
    std::exit(1);
  }

  const double rows = static_cast<double>(machine_count) * passes;
  sample.interp_rows_per_sec = rows / interp_s;
  sample.compiled_rows_per_sec = rows / (build_s + compiled_s);
  sample.scalar_rows_per_sec = rows / (build_s + scalar_s);
  sample.simd_speedup = scalar_s / compiled_s;
  sample.table_build_ms = build_s * 1e3;
  sample.fallback_rows = stats.fallback_rows;
  sample.prefiltered_rows = stats.prefiltered_rows;
  sample.matched = interp_ranked.size();
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs cli(argc, argv);
  const auto ops = static_cast<std::size_t>(
      cli.get("jobs", static_cast<std::int64_t>(200000)));
  const auto groups = static_cast<std::size_t>(
      cli.get("groups", static_cast<std::int64_t>(1024)));
  const auto max_threads = static_cast<std::size_t>(
      cli.get("max-threads", static_cast<std::int64_t>(16)));
  const std::string csv = cli.get("csv", std::string{});
  const std::string metrics_out = cli.get("metrics-out", std::string{});
  const std::string wal_dir = cli.get("wal-dir", std::string{});
  const auto wal_fsync_every = static_cast<std::size_t>(
      cli.get("wal-fsync-every", static_cast<std::int64_t>(64)));
  const double fault_rate = cli.get("fault-rate", 0.0);
  const auto fault_seed = static_cast<std::uint64_t>(
      cli.get("fault-seed", static_cast<std::int64_t>(42)));

  g_batch_max = static_cast<std::size_t>(
      cli.get("batch-max", static_cast<std::int64_t>(32)));
  const std::string batch_compare = cli.get("batch-compare", std::string{});

  util::FaultInjector injector(fault_seed);
  g_durability.wal_dir = wal_dir;
  g_durability.wal_fsync_every = wal_fsync_every;
  if (fault_rate > 0.0) {
    // Keep every injected fault recoverable by retry so the bench measures
    // the retry path, not degraded-mode pass-through. A forced commit
    // attempt is a write and an fsync, two sites: with each capped at one
    // consecutive failure, a commit succeeds by its 4th attempt, inside
    // the default budget of 6. Worker-thread spawn is never retried (the
    // constructor rethrows it), so it stays disarmed.
    injector.arm_all(util::FaultSpec{fault_rate, /*max_consecutive=*/1});
    injector.arm(util::FaultSite::kThreadSpawn, util::FaultSpec{});
    g_durability.faults = &injector;
  }

  if (!batch_compare.empty()) {
    // Perf-smoke: the WAL-backed queued pipeline, batched vs unbatched.
    // Both runs make every operation durable at its batch commit point;
    // batch_max=1 is the pre-batching behavior (one flush+fsync per op).
    const bool own_wal = wal_dir.empty();
    if (own_wal) {
      g_durability.wal_dir =
          (std::filesystem::temp_directory_path() / "resmatch_micro_batch")
              .string();
      std::filesystem::remove_all(g_durability.wal_dir);
    }
    const std::size_t threads = std::clamp<std::size_t>(max_threads, 1, 4);
    const std::size_t compare_ops = std::min<std::size_t>(ops, 20000);
    g_spin_on_full = true;

    g_batch_max = 1;
    obs::Registry registry1;
    const Sample batch1 =
        measure(threads, compare_ops, groups, /*async=*/true, &registry1);
    g_batch_max = 64;
    obs::Registry registry64;
    obs::MetricsSnapshot snapshot64;
    const Sample batch64 = measure(threads, compare_ops, groups,
                                   /*async=*/true, &registry64, &snapshot64);
    const double batch_speedup =
        batch1.jobs_per_sec > 0.0 ? batch64.jobs_per_sec / batch1.jobs_per_sec
                                  : 0.0;

    const std::size_t machine_count = 4096;
    const MatcherSample matcher = measure_matcher(machine_count, 50);
    const double match_speedup =
        matcher.interp_rows_per_sec > 0.0
            ? matcher.compiled_rows_per_sec / matcher.interp_rows_per_sec
            : 0.0;

    std::printf("batched admission, %zu threads x %zu ops, WAL at %s\n",
                threads, compare_ops, g_durability.wal_dir.c_str());
    std::printf("  batch_max=1     %12.0f ops/s\n", batch1.jobs_per_sec);
    std::printf("  batch_max=64    %12.0f ops/s   (%.2fx)\n",
                batch64.jobs_per_sec, batch_speedup);
    std::printf("compiled matcher, %zu machines (%zu matched, "
                "%llu fallback rows, %llu prefiltered/pass)\n",
                machine_count, matcher.matched,
                static_cast<unsigned long long>(matcher.fallback_rows),
                static_cast<unsigned long long>(matcher.prefiltered_rows));
    std::printf("  tree walker     %12.0f rows/s\n",
                matcher.interp_rows_per_sec);
    std::printf("  bytecode+simd   %12.0f rows/s   (%.2fx, incl. %.1f ms "
                "table build)\n",
                matcher.compiled_rows_per_sec, match_speedup,
                matcher.table_build_ms);
    std::printf("  bytecode scalar %12.0f rows/s   (simd kernel %.2fx "
                "per pass)\n",
                matcher.scalar_rows_per_sec, matcher.simd_speedup);

    obs::BenchRecord record("micro_service_batch");
    record.config("threads", static_cast<std::int64_t>(threads));
    record.config("jobs_per_thread", static_cast<std::int64_t>(compare_ops));
    record.config("groups", static_cast<std::int64_t>(groups));
    record.config("machines", static_cast<std::int64_t>(machine_count));
    record.config("wal", g_durability.wal_dir.empty() ? "off" : "on");
    record.summary("ops_per_sec_batch1", batch1.jobs_per_sec);
    record.summary("ops_per_sec_batch64", batch64.jobs_per_sec);
    record.summary("batch_speedup", batch_speedup);
    record.summary("match_rows_per_sec_interp", matcher.interp_rows_per_sec);
    record.summary("match_rows_per_sec_compiled",
                   matcher.compiled_rows_per_sec);
    record.summary("match_speedup", match_speedup);
    record.summary("match_rows_per_sec_compiled_scalar",
                   matcher.scalar_rows_per_sec);
    record.summary("match_simd_speedup", matcher.simd_speedup);
    record.summary("match_table_build_ms", matcher.table_build_ms);
    record.summary("match_prefiltered_rows",
                   static_cast<double>(matcher.prefiltered_rows));
    record.metrics(snapshot64);
    if (own_wal) std::filesystem::remove_all(g_durability.wal_dir);
    if (!record.write(batch_compare)) {
      std::fprintf(stderr, "FAIL: could not write %s\n",
                   batch_compare.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", batch_compare.c_str());
    return 0;
  }

  std::vector<std::size_t> counts;
  for (const std::size_t n : {1u, 2u, 4u, 8u, 16u}) {
    if (n <= max_threads) counts.push_back(n);
  }
  if (counts.empty()) counts.push_back(1);

  std::printf("matchd throughput, %zu ops/thread, %zu groups\n\n", ops,
              groups);
  std::printf("%-8s %-14s %-8s %-14s %-9s %-14s %-8s %-9s\n", "threads",
              "sync jobs/s", "speedup", "instr jobs/s", "overhead",
              "queued jobs/s", "speedup", "rejected");

  double sync_base = 0.0;
  double async_base = 0.0;
  struct Row {
    Sample sync, instr, async;
  };
  std::vector<Row> rows;
  // Registry snapshot of the widest instrumented run, for --metrics-out.
  obs::MetricsSnapshot last_snapshot;
  for (const std::size_t n : counts) {
    const Sample sync =
        measure(n, ops, groups, /*async=*/false, /*registry=*/nullptr);
    obs::Registry registry;  // fresh per run: no cross-run accumulation
    const Sample instr = measure(n, ops, groups, /*async=*/false, &registry,
                                 &last_snapshot);
    const Sample async =
        measure(n, ops, groups, /*async=*/true, /*registry=*/nullptr);
    if (n == counts.front()) {
      sync_base = sync.jobs_per_sec;
      async_base = async.jobs_per_sec;
    }
    const double overhead_pct =
        sync.jobs_per_sec > 0.0
            ? (1.0 - instr.jobs_per_sec / sync.jobs_per_sec) * 100.0
            : 0.0;
    std::printf("%-8zu %-14.0f %-8.2f %-14.0f %-8.1f%% %-14.0f %-8.2f %-9llu\n",
                n, sync.jobs_per_sec, sync.jobs_per_sec / sync_base,
                instr.jobs_per_sec, overhead_pct, async.jobs_per_sec,
                async.jobs_per_sec / async_base,
                static_cast<unsigned long long>(async.rejected));
    rows.push_back({sync, instr, async});
  }

  if (!csv.empty()) {
    util::CsvWriter out(csv);
    out.header({"threads", "sync_jobs_per_sec", "sync_speedup",
                "instr_jobs_per_sec", "overhead_pct", "queued_jobs_per_sec",
                "queued_speedup", "queued_rejected"});
    for (const auto& row : rows) {
      const double overhead_pct =
          row.sync.jobs_per_sec > 0.0
              ? (1.0 - row.instr.jobs_per_sec / row.sync.jobs_per_sec) * 100.0
              : 0.0;
      out.row({std::to_string(row.sync.threads),
               std::to_string(row.sync.jobs_per_sec),
               std::to_string(row.sync.jobs_per_sec / sync_base),
               std::to_string(row.instr.jobs_per_sec),
               std::to_string(overhead_pct),
               std::to_string(row.async.jobs_per_sec),
               std::to_string(row.async.jobs_per_sec / async_base),
               std::to_string(row.async.rejected)});
    }
    std::printf("\nwrote %s\n", csv.c_str());
  }

  if (!metrics_out.empty()) {
    const Row& widest = rows.back();
    const double overhead_pct =
        widest.sync.jobs_per_sec > 0.0
            ? (1.0 - widest.instr.jobs_per_sec / widest.sync.jobs_per_sec) *
                  100.0
            : 0.0;
    obs::BenchRecord record("micro_service");
    record.config("jobs_per_thread", static_cast<std::int64_t>(ops));
    record.config("groups", static_cast<std::int64_t>(groups));
    record.config("threads", static_cast<std::int64_t>(widest.sync.threads));
    record.summary("jobs_per_sec", widest.instr.jobs_per_sec);
    record.summary("jobs_per_sec_baseline", widest.sync.jobs_per_sec);
    record.summary("overhead_pct", overhead_pct);
    record.summary("submit_p50_us", widest.instr.submit_p50_us);
    record.summary("submit_p99_us", widest.instr.submit_p99_us);
    record.summary("queued_jobs_per_sec", widest.async.jobs_per_sec);
    record.summary("backpressure_rejects",
                   static_cast<double>(widest.async.rejected));
    record.metrics(last_snapshot);
    if (!record.write(metrics_out)) {
      std::fprintf(stderr, "FAIL: could not write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", metrics_out.c_str());
  }
  return 0;
}
