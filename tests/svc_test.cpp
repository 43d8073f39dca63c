// Tests for the online service layer (src/svc): estimator store LRU
// bounding, snapshot save/restore, admission-queue backpressure,
// multithreaded counter and invariant consistency, and decision-
// equivalence between the service and the offline simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/capacity_ladder.hpp"
#include "core/group_state.hpp"
#include "obs/metrics.hpp"
#include "sim/serve_replay.hpp"
#include "svc/estimator_store.hpp"
#include "svc/matchd.hpp"
#include "svc/mpmc_queue.hpp"
#include "svc/thread_pool.hpp"
#include "trace/cm5_model.hpp"
#include "trace/transforms.hpp"

namespace resmatch::svc {
namespace {

core::CapacityLadder test_ladder() {
  return core::CapacityLadder({4.0, 8.0, 16.0, 24.0, 32.0, 64.0});
}

trace::JobRecord make_job(MiB req, MiB used, UserId user = 1, AppId app = 1) {
  trace::JobRecord j;
  j.id = 1;
  j.requested_mem_mib = req;
  j.used_mem_mib = used;
  j.user = user;
  j.app = app;
  j.nodes = 1;
  j.runtime = 100;
  return j;
}

core::Feedback outcome(const trace::JobRecord& job, MiB granted) {
  core::Feedback fb;
  fb.success = granted + 1e-9 >= job.used_mem_mib;
  fb.granted_mib = granted;
  return fb;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- estimator store ---------------------------------------------------------

TEST(EstimatorStore, LruEvictionAtBound) {
  StoreConfig config;
  config.shards = 1;  // single stripe makes LRU order fully observable
  config.max_groups = 4;
  EstimatorStore<core::SaGroupState> store(config);

  for (std::uint64_t key = 1; key <= 4; ++key) {
    store.with_group(
        key, [] { return core::SaGroupState::fresh(32.0, 2.0); },
        [](core::SaGroupState&) { return 0; });
  }
  EXPECT_EQ(store.size(), 4u);

  // Touch key 1 so key 2 becomes the LRU, then insert a fifth group.
  EXPECT_TRUE(
      store.modify_if_present(1, [](core::SaGroupState&) {}));
  store.with_group(
      5, [] { return core::SaGroupState::fresh(32.0, 2.0); },
      [](core::SaGroupState&) { return 0; });

  EXPECT_EQ(store.size(), 4u);
  EXPECT_FALSE(store.peek(2).has_value()) << "LRU entry should be evicted";
  EXPECT_TRUE(store.peek(1).has_value());
  EXPECT_TRUE(store.peek(5).has_value());
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(EstimatorStore, PeekDoesNotPerturbLruOrder) {
  StoreConfig config;
  config.shards = 1;
  config.max_groups = 2;
  EstimatorStore<core::SaGroupState> store(config);
  for (std::uint64_t key = 1; key <= 2; ++key) {
    store.with_group(
        key, [] { return core::SaGroupState::fresh(32.0, 2.0); },
        [](core::SaGroupState&) { return 0; });
  }
  // peek(1) must NOT rescue key 1 from eviction.
  EXPECT_TRUE(store.peek(1).has_value());
  store.with_group(
      3, [] { return core::SaGroupState::fresh(32.0, 2.0); },
      [](core::SaGroupState&) { return 0; });
  EXPECT_FALSE(store.peek(1).has_value());
  EXPECT_TRUE(store.peek(2).has_value());
}

// --- admission queue ---------------------------------------------------------

TEST(MpmcQueue, RejectsWhenFullAndAfterClose) {
  BoundedMpmcQueue<int> queue(2);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2), PushResult::kOk);
  EXPECT_EQ(queue.try_push(3), PushResult::kFull);
  EXPECT_EQ(queue.size(), 2u);

  queue.close();
  EXPECT_EQ(queue.try_push(4), PushResult::kClosed);

  // Accepted items still drain after close, in order; 0 means closed and
  // drained.
  std::vector<int> out;
  EXPECT_EQ(queue.pop_bulk(out, 1), 1u);
  EXPECT_EQ(queue.pop_bulk(out, 1), 1u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.pop_bulk(out, 1), 0u);
}

TEST(Matchd, BackpressureRejectsWithReason) {
  // A service with no workers never drains its queue — async must reject
  // with kClosed. A tiny queue with slow consumption must reject kFull.
  Matchd sync_only;
  EXPECT_EQ(sync_only.submit_async(make_job(32, 8), nullptr),
            PushResult::kClosed);

  MatchdConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  Matchd service(config);
  service.set_ladder(test_ladder());

  // Saturate: with one worker and capacity 2, pushing many at once must
  // hit kFull at least once.
  std::size_t rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    if (service.submit_async(make_job(32, 8), nullptr) == PushResult::kFull) {
      ++rejected;
    }
  }
  service.drain();
  EXPECT_GT(rejected, 0u);
  const MatchdStats stats = service.stats();
  EXPECT_EQ(stats.async_rejected_full, rejected);
  EXPECT_EQ(stats.async_accepted + rejected, 2000u);
  EXPECT_EQ(stats.submissions, stats.async_accepted);
}

// --- service semantics -------------------------------------------------------

TEST(Matchd, ConvergesLikeAlgorithmOne) {
  Matchd service;
  service.set_ladder(test_ladder());
  const trace::JobRecord job = make_job(32, 7);

  // 32 -> 16 -> 8 -> 4 (fail) -> 8 forever: the paper's Figure 7 shape.
  std::vector<MiB> grants;
  for (int i = 0; i < 6; ++i) {
    const MatchDecision d = service.submit(job);
    grants.push_back(d.granted_mib);
    service.feedback(job, outcome(job, d.granted_mib));
  }
  EXPECT_EQ(grants,
            (std::vector<MiB>{32.0, 16.0, 8.0, 4.0, 8.0, 8.0}));

  const MatchdStats stats = service.stats();
  EXPECT_EQ(stats.submissions, 6u);
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.successes, 5u);
  EXPECT_EQ(stats.rewrites, 5u);  // all but the first grant were lowered
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(service.invariant_violations(), 0u);
}

TEST(Matchd, SnapshotWarmRestart) {
  const std::string path = temp_path("resmatch_svc_test_snapshot.csv");
  const trace::JobRecord job = make_job(32, 7);

  MiB converged = 0.0;
  {
    Matchd service;
    service.set_ladder(test_ladder());
    for (int i = 0; i < 6; ++i) {
      const MatchDecision d = service.submit(job);
      converged = d.granted_mib;
      service.feedback(job, outcome(job, d.granted_mib));
    }
    ASSERT_TRUE(service.save_store(path));
  }

  Matchd restarted;
  restarted.set_ladder(test_ladder());
  const auto rows = restarted.restore_store(path);
  ASSERT_TRUE(rows.has_value()) << rows.error();
  EXPECT_EQ(rows.value(), 1u);
  // The restarted service grants the converged estimate immediately,
  // instead of re-learning from 32 MiB.
  EXPECT_EQ(restarted.submit(job).granted_mib, converged);
  std::remove(path.c_str());
}

TEST(Matchd, MultithreadedHammerKeepsInvariants) {
  MatchdConfig config;
  config.store.shards = 8;
  Matchd service(config);
  service.set_ladder(test_ladder());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 5000;
  constexpr std::size_t kGroups = 37;

  // A reader previews the hammered groups while the writers run. Every
  // answer must be a rung of the ladder, never above the rounded request.
  const core::CapacityLadder ladder = test_ladder();
  const std::vector<MiB>& rungs = ladder.rungs();
  const MiB rounded_request = ladder.round_up(32.0);
  std::atomic<bool> writers_done{false};
  std::atomic<std::uint64_t> previews{0};
  std::atomic<std::uint64_t> bad_previews{0};
  std::thread reader([&] {
    for (std::uint64_t n = 0;
         !writers_done.load(std::memory_order_relaxed); ++n) {
      const trace::JobRecord job =
          make_job(32.0, 4.0, static_cast<UserId>(n % kGroups),
                   static_cast<AppId>(n % 5));
      const MiB p = service.preview(job);
      if (std::find(rungs.begin(), rungs.end(), p) == rungs.end() ||
          p > rounded_request) {
        bad_previews.fetch_add(1, std::memory_order_relaxed);
      }
      previews.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Start the writers only once the reader is running, so the two overlap.
  while (previews.load() == 0) std::this_thread::yield();

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&service, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t n = t * kOpsPerThread + i;
        trace::JobRecord job = make_job(
            32.0, 4.0 + static_cast<double>(n % 13),
            static_cast<UserId>(n % kGroups), static_cast<AppId>(n % 5));
        const MatchDecision d = service.submit(job);
        if (n % 17 == 0) {
          service.cancel(job, d.granted_mib);
        } else {
          service.feedback(job, outcome(job, d.granted_mib));
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  writers_done.store(true);
  reader.join();
  EXPECT_EQ(bad_previews.load(), 0u);

  const MatchdStats stats = service.stats();
  EXPECT_EQ(stats.submissions, kThreads * kOpsPerThread);
  EXPECT_EQ(stats.successes + stats.failures + stats.cancels,
            kThreads * kOpsPerThread);
  // Per-shard rows must sum to the aggregate.
  std::uint64_t shard_submissions = 0;
  for (const auto& shard : stats.shards) shard_submissions += shard.submissions;
  EXPECT_EQ(shard_submissions, stats.submissions);
  // Every group must satisfy Algorithm 1's invariants under any
  // interleaving: alpha >= 1, estimate bounded by the proven capacity.
  EXPECT_EQ(service.invariant_violations(), 0u);
}

TEST(Matchd, AsyncPipelineMatchesSyncDecisions) {
  const core::CapacityLadder ladder = test_ladder();
  MatchdConfig async_config;
  async_config.workers = 2;

  Matchd sync_service;
  sync_service.set_ladder(ladder);
  Matchd async_service(async_config);
  async_service.set_ladder(ladder);

  // Drive both serially through the same trajectory; the async service is
  // waited on per-op via the adapter, so decisions must be identical.
  MatchdEstimator adapter(async_service);
  for (int i = 0; i < 8; ++i) {
    const trace::JobRecord job = make_job(32, 6);
    const MiB sync_grant = sync_service.submit(job).granted_mib;
    const MiB async_grant = adapter.estimate(job, core::SystemState{});
    EXPECT_EQ(sync_grant, async_grant) << "iteration " << i;
    sync_service.feedback(job, outcome(job, sync_grant));
    adapter.feedback(job, outcome(job, async_grant));
  }
}

// --- snapshots: round trip, atomicity, restore semantics --------------------

/// Groups for users [first, last): one submit + feedback each, failing for
/// every third user, so the store holds lowered, probing and frozen states.
void populate(Matchd& service, UserId first, UserId last) {
  for (UserId user = first; user < last; ++user) {
    const trace::JobRecord job =
        make_job(32, user % 3 == 0 ? 40.0 : 5.0, user);
    const MatchDecision d = service.submit(job);
    service.feedback(job, outcome(job, d.granted_mib));
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(Matchd, SnapshotRoundTripKeepsEveryGroupAndItsLruOrder) {
  const std::string original = temp_path("resmatch_roundtrip_a.snap");
  const std::string copy = temp_path("resmatch_roundtrip_b.snap");
  // One stripe bounded at 20 groups, so the order a restore rebuilds
  // decides which group the next new one evicts.
  MatchdConfig config;
  config.store.shards = 1;
  config.store.max_groups = 20;
  Matchd service(config);
  service.set_ladder(test_ladder());
  populate(service, 1, 21);
  populate(service, 1, 2);  // user 1 becomes the most recently used
  ASSERT_TRUE(service.save_store(original));

  Matchd restored(config);
  restored.set_ladder(test_ladder());
  const auto rows = restored.restore_store(original);
  ASSERT_TRUE(rows.has_value()) << rows.error();
  EXPECT_EQ(rows.value(), 20u);
  // Same groups, same states, same order: the restored store saves the
  // same bytes.
  ASSERT_TRUE(restored.save_store(copy));
  EXPECT_EQ(file_bytes(copy), file_bytes(original));

  // A new group evicts the same least recently used group (user 2) in
  // both, and leaves both stores byte-identical again.
  populate(service, 21, 22);
  populate(restored, 21, 22);
  EXPECT_EQ(restored.stats().evictions, 1u);
  ASSERT_TRUE(service.save_store(original));
  ASSERT_TRUE(restored.save_store(copy));
  EXPECT_EQ(file_bytes(copy), file_bytes(original));
  const trace::JobRecord evicted = make_job(32, 5.0, 2);
  EXPECT_EQ(restored.preview(evicted), test_ladder().round_up(32));
  std::remove(original.c_str());
  std::remove(copy.c_str());
}

TEST(Matchd, FailedSaveLeavesPriorSnapshotIntact) {
  namespace fs = std::filesystem;
  const std::string path = temp_path("resmatch_atomic_save.snap");
  MatchdConfig config;
  config.store.shards = 2;
  Matchd service(config);
  service.set_ladder(test_ladder());
  populate(service, 1, 11);
  ASSERT_TRUE(service.save_store(path));

  // Snapshots go through a deterministic temp name in the target's
  // directory; a directory squatting on it forces the writer's open to
  // fail before the real file could be touched (works even as root,
  // where permission bits would not).
  fs::create_directory(path + ".tmp");
  populate(service, 99, 100);
  EXPECT_FALSE(service.save_store(path));
  fs::remove_all(path + ".tmp");

  // The failed save must not have truncated or replaced the old snapshot.
  {
    Matchd restored(config);
    const auto rows = restored.restore_store(path);
    ASSERT_TRUE(rows.has_value()) << rows.error();
    EXPECT_EQ(rows.value(), 10u);
    EXPECT_EQ(restored.stats().groups, 10u);
  }

  // A save retried after the obstruction clears replaces atomically and
  // leaves no temp file behind.
  ASSERT_TRUE(service.save_store(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  Matchd after(config);
  EXPECT_EQ(after.restore_store(path).value(), 11u);
  std::remove(path.c_str());
}

TEST(Matchd, SnapshotWithAnInvalidGroupRestoresNothing) {
  // The file's frames are intact, but alpha below 1 breaks Algorithm 1's
  // invariants, so SaGroupState::from_fields refuses the second group:
  // the restore fails by file name and keeps none of the file.
  const std::string path = temp_path("resmatch_invalid_group.snap");
  ASSERT_TRUE(write_snapshot(path, [](const RecordSink& put) {
    const double good[5] = {16.0, 32.0, 2.0, 0.0, 0.0};
    const double bad[5] = {16.0, 32.0, 0.5, 0.0, 0.0};
    put(WalRecordType::kUpsert, 7, good, 5);
    put(WalRecordType::kUpsert, 8, bad, 5);
  }));
  Matchd service;
  const auto rows = service.restore_store(path);
  ASSERT_FALSE(rows.has_value());
  EXPECT_NE(rows.error().find(path), std::string::npos) << rows.error();
  EXPECT_EQ(service.stats().groups, 0u);
  std::remove(path.c_str());
}

TEST(Matchd, RestoreDoesNotPerturbTrafficCounters) {
  const std::string path = temp_path("resmatch_restore_counters.snap");
  MatchdConfig config;
  config.store.shards = 4;
  {
    Matchd service(config);
    service.set_ladder(test_ladder());
    populate(service, 1, 21);
    ASSERT_TRUE(service.save_store(path));
  }

  // A warm restart restores state, not traffic: hit-rate metrics must
  // start from zero instead of reporting one spurious miss per group.
  Matchd restored(config);
  ASSERT_TRUE(restored.restore_store(path).has_value());
  const StoreStats stats = restored.stats().store;
  EXPECT_EQ(stats.entries, 20u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);

  // The entry bound still holds during restore, and even forced drops
  // are not counted as traffic evictions.
  MatchdConfig bounded;
  bounded.store.shards = 1;
  bounded.store.max_groups = 8;
  Matchd small(bounded);
  ASSERT_TRUE(small.restore_store(path).has_value());
  EXPECT_EQ(small.stats().groups, 8u);
  EXPECT_EQ(small.stats().evictions, 0u);

  // Re-restoring over live entries must not duplicate them.
  ASSERT_TRUE(restored.restore_store(path).has_value());
  EXPECT_EQ(restored.stats().groups, 20u);
  std::remove(path.c_str());
}

// --- thread pool spawn-failure recovery --------------------------------------

/// Worker whose copies are counted and, once `fuse` is armed, throw.
/// std::thread decay-copies the callable in the spawning thread, so an
/// armed fuse makes ThreadPool's k-th spawn throw — exactly the failure
/// mode the ctor must survive without std::terminate.
struct ThrowingWorker {
  std::shared_ptr<std::atomic<int>> copies;
  std::shared_ptr<std::atomic<int>> fuse;  // throw when copies exceeds; -1=off
  std::shared_ptr<std::atomic<bool>> release;

  ThrowingWorker(std::shared_ptr<std::atomic<int>> c,
                 std::shared_ptr<std::atomic<int>> f,
                 std::shared_ptr<std::atomic<bool>> r)
      : copies(std::move(c)), fuse(std::move(f)), release(std::move(r)) {}

  ThrowingWorker(const ThrowingWorker& other)
      : copies(other.copies), fuse(other.fuse), release(other.release) {
    const int n = copies->fetch_add(1) + 1;
    const int limit = fuse->load();
    if (limit >= 0 && n > limit) throw std::runtime_error("spawn fuse blew");
  }
  ThrowingWorker(ThrowingWorker&&) = default;

  void operator()(std::size_t) const {
    // Block like a real queue drainer until the failure path releases us.
    while (!release->load()) std::this_thread::yield();
  }
};

TEST(ThreadPool, SpawnFailureReleasesAndJoinsSpawnedWorkers) {
  auto copies = std::make_shared<std::atomic<int>>(0);
  auto fuse = std::make_shared<std::atomic<int>>(-1);
  auto release = std::make_shared<std::atomic<bool>>(false);

  // Calibrate how many callable copies one spawn costs (std::function
  // wrapping is implementation-defined), by building real pools with the
  // fuse off and workers released.
  release->store(true);
  const auto copies_for = [&](std::size_t workers) {
    copies->store(0);
    std::function<void(std::size_t)> fn(
        ThrowingWorker(copies, fuse, release));
    ThreadPool pool(workers, fn);
    pool.join();
    return copies->load();
  };
  const int with_one = copies_for(1);
  const int with_three = copies_for(3);
  const int per_spawn = (with_three - with_one) / 2;
  ASSERT_GT(per_spawn, 0);

  // Arm the fuse so the first spawns succeed and a later one throws; the
  // spawned workers block until on_spawn_failure flips `release` —
  // proving the hook runs before the recovery join (otherwise this test
  // hangs). The fuse stays off while std::function wrapping makes its
  // own copies, then trips within two spawns' worth.
  release->store(false);
  copies->store(0);
  fuse->store(-1);
  bool hook_ran = false;
  std::function<void(std::size_t)> fn(ThrowingWorker(copies, fuse, release));
  fuse->store(copies->load() + 2 * per_spawn);
  EXPECT_THROW(ThreadPool(4, fn,
                          [&] {
                            hook_ran = true;
                            release->store(true);
                          }),
               std::runtime_error);
  EXPECT_TRUE(hook_ran);
}

TEST(Matchd, WorkerSpawnFailureDoesNotLeakOrDangle) {
  // End-to-end: matchd's ctor reaches its recovery path (close queue,
  // join partial pool, drop metric providers) when the pool cannot be
  // built. Thread-creation failure cannot be forced portably, so this
  // exercises the same path via an absurd worker count only when the
  // platform rejects it quickly; otherwise the unit above covers it.
  obs::Registry registry;
  MatchdConfig config;
  config.workers = 2;
  config.metrics = &registry;
  {
    Matchd service(config);
    service.set_ladder(test_ladder());
    EXPECT_GT(registry.size(), 0u);
  }
  // Every pull provider the service registered must be gone with it: a
  // snapshot after destruction would otherwise call dangling captures.
  // Histograms are registry-owned push instruments and deliberately
  // survive (serve_replay reads them after the service winds down).
  const obs::MetricsSnapshot snap = registry.snapshot();
  for (const auto& sample : snap.samples) {
    if (sample.name.rfind("resmatch_matchd_", 0) == 0 ||
        sample.name.rfind("resmatch_store_", 0) == 0) {
      EXPECT_EQ(sample.type, obs::MetricType::kHistogram)
          << "dangling provider: " << sample.name;
    }
  }
}

// --- instrumented concurrency: drain vs admit vs snapshot --------------------

TEST(Matchd, DrainRacesAdmitAndMetricsSnapshots) {
  // TSan hammer: producers push async work, a drainer loops drain(), a
  // scraper loops registry snapshots, all against per-op histogram
  // recording (sample period 1 = every op timed). Run under the TSan CI
  // job; here it still checks counter coherence after the dust settles.
  obs::Registry registry;
  MatchdConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.store.shards = 4;
  config.metrics = &registry;
  config.metrics_sample_period = 1;
  Matchd service(config);
  service.set_ladder(test_ladder());

  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kOpsPerProducer = 2000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> resolved{0};

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&service, &resolved, t] {
      for (std::size_t i = 0; i < kOpsPerProducer; ++i) {
        const std::uint64_t n = t * kOpsPerProducer + i;
        trace::JobRecord job =
            make_job(32.0, 4.0 + static_cast<double>(n % 7),
                     static_cast<UserId>(n % 23), static_cast<AppId>(n % 3));
        const auto pushed = service.submit_async(
            job, [&service, &resolved, job](const MatchDecision& d) {
              service.feedback(job, outcome(job, d.granted_mib));
              resolved.fetch_add(1);
            });
        if (pushed != PushResult::kOk) {
          const MatchDecision d = service.submit(job);
          service.feedback(job, outcome(job, d.granted_mib));
          resolved.fetch_add(1);
        }
      }
    });
  }
  std::thread drainer([&service, &stop] {
    while (!stop.load()) service.drain();
  });
  std::thread scraper([&registry, &service, &stop] {
    while (!stop.load()) {
      const obs::MetricsSnapshot snap = registry.snapshot();
      (void)snap.find("resmatch_matchd_queue_depth");
      (void)service.stats();
      std::this_thread::yield();
    }
  });

  for (auto& p : producers) p.join();
  service.drain();
  stop.store(true);
  drainer.join();
  scraper.join();

  constexpr std::uint64_t kTotal = kProducers * kOpsPerProducer;
  EXPECT_EQ(resolved.load(), kTotal);
  const MatchdStats stats = service.stats();
  EXPECT_EQ(stats.submissions, kTotal);
  EXPECT_EQ(stats.successes + stats.failures, kTotal);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(service.invariant_violations(), 0u);

  // Per-op latency histograms belong to the synchronous API; the batched
  // worker path records batch sizes instead. Feedback here is always
  // synchronous (called from the decision callback), so its histogram
  // saw every operation; batch-size observations must cover every
  // async-admitted submission.
  const obs::MetricsSnapshot snap = registry.snapshot();
  const auto* fb = snap.find("resmatch_matchd_op_latency_seconds",
                             {{"op", "feedback"}});
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(fb->histogram.count, kTotal);
  const auto* batches = snap.find("resmatch_batch_size");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->histogram.count, stats.batch_drains);
  EXPECT_EQ(stats.async_accepted,
            static_cast<std::uint64_t>(batches->histogram.sum));
}

// --- bulk pop and batched admission ------------------------------------------

TEST(MpmcQueue, PopBulkDrainsFifoUpToMax) {
  BoundedMpmcQueue<int> queue(16);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_EQ(queue.try_push(int{i}), PushResult::kOk);
  }
  std::vector<int> out;
  EXPECT_EQ(queue.pop_bulk(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(queue.pop_bulk(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  // Fewer available than max: take what is there, no blocking (the queue
  // is not empty so the initial wait passes straight through).
  EXPECT_EQ(queue.pop_bulk(out, 4), 2u);
  EXPECT_EQ(out.back(), 10);
  queue.close();
  // Closed and drained: the consumer-exit signal.
  EXPECT_EQ(queue.pop_bulk(out, 4), 0u);
}

TEST(MpmcQueue, WaitEmptyWaitsForDrainEvenAfterClose) {
  // Regression: wait_empty() used to return as soon as the queue was
  // closed, even with items still queued — Matchd::drain() could then
  // report completion while admitted requests sat unprocessed.
  BoundedMpmcQueue<int> queue(8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(queue.try_push(int{i}), PushResult::kOk);
  }
  queue.close();

  std::thread consumer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::vector<int> out;
    while (queue.pop_bulk(out, 1) != 0) {
    }
  });
  const auto start = std::chrono::steady_clock::now();
  queue.wait_empty();
  const auto waited = std::chrono::steady_clock::now() - start;
  consumer.join();

  EXPECT_EQ(queue.size(), 0u);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            50)
      << "wait_empty returned before the consumer drained the queue";
}

TEST(MpmcQueue, RingWrapsAndGrowsInFifoOrderUpToCapacity) {
  // Capacity 40: a ring of 16 slots, grown to 32, then to 64 (the power of
  // two at or above 40), while the item count never passes 40.
  BoundedMpmcQueue<int> queue(40);
  int next = 0;
  const auto push = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(queue.try_push(int{next++}), PushResult::kOk);
    }
  };
  std::vector<int> out;
  push(12);
  ASSERT_EQ(queue.pop_bulk(out, 10), 10u);  // the head sits at slot 10 of 16
  // 2 queued; 14 more wrap past the ring's end and fill it, and the 17th
  // item grows it while the items are wrapped.
  push(15);
  ASSERT_EQ(queue.size(), 17u);
  ASSERT_EQ(queue.pop_bulk(out, 5), 5u);

  // A bulk push past the bound takes only the free room, in order. An item
  // the caller refused itself is skipped and keeps its result.
  std::vector<int> batch(30);
  for (int& v : batch) v = next++;
  std::vector<PushResult> results(batch.size(), PushResult::kOk);
  results[3] = PushResult::kFull;
  EXPECT_EQ(queue.push_bulk(batch, results), 28u);
  EXPECT_EQ(queue.size(), 40u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const bool taken = i != 3 && i < 29;
    EXPECT_EQ(results[i], taken ? PushResult::kOk : PushResult::kFull)
        << "item " << i;
  }
  EXPECT_EQ(queue.try_push(99), PushResult::kFull);

  // Items pushed before close() still drain, in FIFO order across every
  // wrap and growth.
  queue.close();
  EXPECT_EQ(queue.try_push(99), PushResult::kClosed);
  while (queue.pop_bulk(out, 7) != 0) {
  }
  std::vector<int> expected;
  for (int v = 0; v < 27; ++v) expected.push_back(v);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i != 3 && i < 29) expected.push_back(batch[i]);
  }
  EXPECT_EQ(out, expected);
}

TEST(MpmcQueue, UnboundedCapacityGrowsTheRingByDoubling) {
  // The largest capacity stands for "no bound": the ring still grows by
  // doubling from 16 slots, and every item wraps and drains in order.
  BoundedMpmcQueue<int> queue(std::numeric_limits<std::size_t>::max());
  int next = 0;
  std::vector<int> out;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 45; ++i) {
      ASSERT_EQ(queue.try_push(int{next++}), PushResult::kOk);
    }
    ASSERT_EQ(queue.pop_bulk(out, 30), 30u);
  }
  ASSERT_EQ(queue.size(), 60u);
  queue.close();
  while (queue.pop_bulk(out, 16) != 0) {
  }
  ASSERT_EQ(out.size(), 180u);
  for (int v = 0; v < 180; ++v) EXPECT_EQ(out[v], v) << "item " << v;
}

TEST(Matchd, StagedBatchAdmitsInOrderUntilFullThenRefusesTheRest) {
  MatchdConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  Matchd service(config);
  service.set_ladder(test_ladder());

  // Park the worker inside a callback, so the queue is empty with all 8
  // slots free and nothing drains it during the admission below.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_EQ(service.submit_async(make_job(32, 8),
                                 [&](const MatchDecision&) {
                                   parked.set_value();
                                   released.wait();
                                 }),
            PushResult::kOk);
  parked.get_future().wait();

  constexpr std::size_t kBatch = 20;
  std::vector<Matchd::Request> batch(kBatch);
  std::vector<std::size_t> calls;  // written by the worker, read after drain
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch[i].job = make_job(32, 8);
    batch[i].on_decision = [&calls, i](const MatchDecision&) {
      calls.push_back(i);
    };
  }
  std::vector<PushResult> results(kBatch);
  EXPECT_EQ(service.admit(batch, results), 8u);
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(results[i], i < 8 ? PushResult::kOk : PushResult::kFull)
        << "request " << i;
    // A refused request is left intact for the caller.
    if (i >= 8) {
      EXPECT_TRUE(static_cast<bool>(batch[i].on_decision));
    }
  }

  release.set_value();
  service.drain();
  // Admitted ones ran once each, in arrival order; no refused one ran.
  EXPECT_EQ(calls, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  const MatchdStats stats = service.stats();
  EXPECT_EQ(stats.async_accepted, 1u + 8u);
  EXPECT_EQ(stats.async_rejected_full, kBatch - 8);
  EXPECT_EQ(stats.async_accepted + stats.async_rejected_full, 1 + kBatch);
  EXPECT_EQ(stats.submissions, stats.async_accepted);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(EstimatorStore, PeekHammerNeverSeesTornState) {
  // Torn-read detector (run under the TSan CI job too): writers keep the
  // pair (estimate, last_good = 2 * estimate) in lockstep under the shard
  // lock; peek() readers must never observe the pair out of sync. A churn
  // thread concurrently inserts groups into the same stripe, so readers
  // also race index growth.
  StoreConfig config;
  config.shards = 1;
  config.max_groups = 4096;
  EstimatorStore<core::SaGroupState> store(config);
  constexpr std::uint64_t kKey = 7;
  store.with_group(
      kKey, [] { return core::SaGroupState::fresh(1.0, 2.0); },
      [](core::SaGroupState& s) {
        s.estimate = 1.0;
        s.last_good = 2.0;
      });

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&store, &stop, &torn] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s = store.peek(kKey);
        if (s && s->last_good != 2.0 * s->estimate) torn.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&store] {
      for (int i = 0; i < 20000; ++i) {
        store.modify_if_present(kKey, [](core::SaGroupState& s) {
          const double next = s.estimate + 1.0;
          s.estimate = next;
          s.last_good = 2.0 * next;
        });
      }
    });
  }
  std::thread churn([&store] {
    for (std::uint64_t key = 1000; key < 1600; ++key) {
      store.with_group(
          key, [] { return core::SaGroupState::fresh(8.0, 2.0); },
          [](core::SaGroupState&) { return 0; });
    }
  });

  for (auto& w : writers) w.join();
  churn.join();
  stop.store(true);
  for (auto& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u);
  const auto final_state = store.peek(kKey);
  ASSERT_TRUE(final_state.has_value());
  EXPECT_EQ(final_state->estimate, 1.0 + 2 * 20000);
}

TEST(Matchd, BatchedPipelineMatchesSyncPerKeyChains) {
  // Keys are independent estimator groups, so however the worker batches
  // interleave THEM, each key's own chain must produce the grant stream
  // and the counters the synchronous service produces — batching may
  // reorder across keys but never within one (the batch sort is stable).
  // Every fifth job of a chain is cancelled instead of fed back, and one
  // cancel names a group neither service has seen: it counts in neither.
  constexpr std::size_t kKeys = 8;
  constexpr int kOpsPerKey = 40;
  const core::CapacityLadder ladder = test_ladder();
  const auto job_of = [](std::size_t k) {
    return make_job(64.0, 5.0 + static_cast<double>(k),
                    static_cast<UserId>(k + 1), 1);
  };
  const auto cancelled = [](int i) { return i % 5 == 4; };
  const trace::JobRecord unseen = make_job(64.0, 5.0, /*user=*/999, 1);

  // Per-key reference streams and counters from a workers=0 service.
  std::vector<std::vector<MiB>> expected(kKeys);
  MatchdStats want;
  {
    Matchd sync_service;
    sync_service.set_ladder(ladder);
    for (std::size_t k = 0; k < kKeys; ++k) {
      for (int i = 0; i < kOpsPerKey; ++i) {
        const trace::JobRecord job = job_of(k);
        const MatchDecision d = sync_service.submit(job);
        expected[k].push_back(d.granted_mib);
        if (cancelled(i)) {
          sync_service.cancel(job, d.granted_mib);
        } else {
          sync_service.feedback(job, outcome(job, d.granted_mib));
        }
      }
    }
    sync_service.cancel(unseen, 64.0);
    want = sync_service.stats();
  }
  EXPECT_EQ(want.cancels, kKeys * kOpsPerKey / 5);
  EXPECT_EQ(want.groups, kKeys);
  EXPECT_GT(want.rewrites, 0u);
  EXPECT_GT(want.failures, 0u);

  for (const std::size_t batch_max : {std::size_t{1}, std::size_t{8},
                                      std::size_t{64}}) {
    MatchdConfig config;
    config.workers = 2;
    config.queue_capacity = 256;
    config.batch_max = batch_max;
    Matchd service(config);
    service.set_ladder(ladder);

    std::vector<std::vector<MiB>> got(kKeys);
    std::vector<std::thread> drivers;
    for (std::size_t k = 0; k < kKeys; ++k) {
      drivers.emplace_back([&, k] {
        MatchdEstimator adapter(service);
        for (int i = 0; i < kOpsPerKey; ++i) {
          const trace::JobRecord job = job_of(k);
          const MiB granted = adapter.estimate(job, core::SystemState{});
          got[k].push_back(granted);
          if (cancelled(i)) {
            adapter.cancel(job, granted);
          } else {
            adapter.feedback(job, outcome(job, granted));
          }
        }
      });
    }
    for (auto& d : drivers) d.join();
    MatchdEstimator(service).cancel(unseen, 64.0);
    service.drain();

    for (std::size_t k = 0; k < kKeys; ++k) {
      EXPECT_EQ(got[k], expected[k]) << "batch_max=" << batch_max
                                     << " key=" << k;
    }
    const MatchdStats stats = service.stats();
    EXPECT_EQ(stats.submissions, kKeys * kOpsPerKey);
    EXPECT_EQ(stats.rewrites, want.rewrites) << "batch_max=" << batch_max;
    EXPECT_EQ(stats.successes, want.successes) << "batch_max=" << batch_max;
    EXPECT_EQ(stats.failures, want.failures) << "batch_max=" << batch_max;
    EXPECT_EQ(stats.cancels, want.cancels) << "batch_max=" << batch_max;
    EXPECT_EQ(stats.groups, want.groups) << "batch_max=" << batch_max;
    EXPECT_GT(stats.batch_drains, 0u);
    EXPECT_EQ(service.invariant_violations(), 0u);
  }
}

// --- decision equivalence with the offline simulator -------------------------

TEST(ServeReplay, ServiceIdenticalToOfflineSimulator) {
  trace::Workload workload = trace::generate_cm5_small(/*seed=*/3, 2000);
  const sim::ClusterSpec cluster = sim::cm5_heterogeneous(24.0, 64);
  workload = trace::drop_wide_jobs(std::move(workload), 128);
  workload = trace::sort_by_submit(
      trace::scale_to_load(std::move(workload), 128, 1.0));

  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    sim::ServeReplayConfig config;
    config.matchd.workers = workers;
    const sim::ServeReplayResult result =
        sim::serve_replay(workload, cluster, config);
    EXPECT_GT(result.decisions, 0u);
    EXPECT_EQ(result.mismatches, 0u) << "workers=" << workers;
    EXPECT_TRUE(result.identical()) << "workers=" << workers;
    EXPECT_EQ(result.stats.submissions,
              result.stats.successes + result.stats.failures +
                  result.stats.cancels)
        << "every submission must be resolved";
  }
}

}  // namespace
}  // namespace resmatch::svc
