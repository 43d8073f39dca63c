// Chaos tests for the durability layer: CRC framing, deterministic fault
// injection, retry/backoff, WAL append/replay/rotation, matchd degraded
// mode, crash-recovery equivalence (the property the WAL exists for), and
// the shutdown-durability drain path. The multithreaded hammers double as
// the TSan targets of the chaos CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/capacity_ladder.hpp"
#include "sim/cluster.hpp"
#include "sim/serve_replay.hpp"
#include "svc/matchd.hpp"
#include "svc/wal.hpp"
#include "trace/cm5_model.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace resmatch::svc {
namespace {

core::CapacityLadder test_ladder() {
  return core::CapacityLadder({4.0, 8.0, 16.0, 24.0, 32.0, 64.0});
}

trace::JobRecord make_job(std::uint64_t n, std::size_t groups = 64) {
  trace::JobRecord j;
  j.id = n;
  j.user = static_cast<UserId>(n % groups);
  j.app = static_cast<AppId>((n / groups) % 7);
  j.requested_mem_mib = 32.0;
  j.used_mem_mib = 4.0 + static_cast<double>(n % 13);
  j.nodes = 1;
  j.runtime = 100;
  return j;
}

/// Fresh per-test WAL directory under the system temp path.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("resmatch_fault_" + name))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Explicit feedback for one attempt of `job` at `granted`.
core::Feedback explicit_feedback(const trace::JobRecord& job, MiB granted) {
  core::Feedback fb;
  fb.granted_mib = granted;
  fb.success = job.used_mem_mib <= granted;
  fb.used_mib = job.used_mem_mib;
  return fb;
}

/// Submit + explicit feedback for one job; returns the grant.
MiB drive_job(Matchd& service, const trace::JobRecord& job) {
  const MatchDecision d = service.submit(job);
  service.feedback(job, explicit_feedback(job, d.granted_mib));
  return d.granted_mib;
}

/// Jobs [first, first + count) as one block: every submission, then every
/// job's explicit feedback in the same order. A service with workers
/// admits each half with one Matchd::admit call, which queues the whole
/// half under one lock before a worker wakes, and drains it; a
/// synchronous service calls the API directly, so one job is drive_job.
std::vector<MiB> drive_block(Matchd& service, std::uint64_t first,
                             std::size_t count) {
  std::vector<trace::JobRecord> jobs;
  for (std::uint64_t n = first; n < first + count; ++n) {
    jobs.push_back(make_job(n, /*groups=*/8));
  }
  std::vector<MiB> granted(count);
  if (!service.async_enabled()) {
    for (std::size_t i = 0; i < count; ++i) {
      granted[i] = service.submit(jobs[i]).granted_mib;
    }
    for (std::size_t i = 0; i < count; ++i) {
      service.feedback(jobs[i], explicit_feedback(jobs[i], granted[i]));
    }
    return granted;
  }
  std::vector<Matchd::Request> requests(count);
  const auto admit_all = [&] {
    std::vector<PushResult> results(count);
    EXPECT_EQ(service.admit(requests, results), count);
    service.drain();
  };
  for (std::size_t i = 0; i < count; ++i) {
    requests[i].job = jobs[i];
    requests[i].on_decision = [&granted, i](const MatchDecision& d) {
      granted[i] = d.granted_mib;
    };
  }
  admit_all();
  for (std::size_t i = 0; i < count; ++i) {
    requests[i] = Matchd::Request{};
    requests[i].kind = Matchd::Request::Kind::kFeedback;
    requests[i].job = jobs[i];
    requests[i].fb = explicit_feedback(jobs[i], granted[i]);
  }
  admit_all();
  return granted;
}

/// The store's full state as a canonical set of snapshot records (order-
/// independent: restore order may legally differ from organic LRU order).
std::multiset<std::string> store_rows(const Matchd& service,
                                      const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("resmatch_rows_" + tag))
          .string();
  EXPECT_TRUE(service.save_store(path));
  std::multiset<std::string> rows;
  const auto read = read_snapshot(
      path, [&](WalRecordType type, std::uint64_t key, const double* fields,
                std::size_t n_fields) {
        std::string row = std::to_string(static_cast<int>(type)) + ',' +
                          std::to_string(key);
        for (std::size_t i = 0; i < n_fields; ++i) {
          char cell[32];
          std::snprintf(cell, sizeof(cell), ",%.17g", fields[i]);
          row += cell;
        }
        rows.insert(row);
        return true;
      });
  if (!read) ADD_FAILURE() << read.error();
  std::filesystem::remove(path);
  return rows;
}

// --- crc32 -------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = util::crc32(data.data(), data.size());
  const std::uint32_t half = util::crc32(data.data(), 20);
  EXPECT_EQ(util::crc32(data.data() + 20, data.size() - 20, half), whole);
  EXPECT_NE(util::crc32(data.data(), data.size() - 1), whole);
}

/// Byte-at-a-time CRC-32, the oracle for util::crc32's sliced kernel: one
/// 256-entry table, one byte a step.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t len,
                             std::uint32_t crc) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng() & 0xFF);
  return out;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length 0..512 at every start offset 0..7 covers each tail length
  // after each 8-byte step and every alignment of the word loads; a
  // nonzero incoming crc covers the incremental form.
  const std::vector<unsigned char> bytes = random_bytes(512 + 8, 0xC5C32);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 512; ++len) {
      const unsigned char* p = bytes.data() + offset;
      ASSERT_EQ(util::crc32(p, len), crc32_bytewise(p, len, 0))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(util::crc32(p, len, 0x9E3779B9u),
                crc32_bytewise(p, len, 0x9E3779B9u))
          << "offset " << offset << " len " << len << " chained";
    }
  }
}

TEST(Crc32Test, ChainingAtEverySplitMatchesOneShot) {
  const std::vector<unsigned char> bytes = random_bytes(1024, 0xC5C33);
  const std::uint32_t whole = util::crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, crc32_bytewise(bytes.data(), bytes.size(), 0));
  for (std::size_t k = 0; k <= bytes.size(); ++k) {
    ASSERT_EQ(util::crc32(bytes.data() + k, bytes.size() - k,
                          util::crc32(bytes.data(), k)),
              whole)
        << "split at " << k;
  }
}

// --- fault injector ----------------------------------------------------------

TEST(FaultInjectorTest, DeterministicPerSeed) {
  const auto decisions = [](std::uint64_t seed) {
    util::FaultInjector inj(seed);
    inj.arm(util::FaultSite::kWalAppend, {0.5, UINT32_MAX});
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(inj.should_fail(util::FaultSite::kWalAppend));
    }
    return out;
  };
  EXPECT_EQ(decisions(7), decisions(7));
  EXPECT_NE(decisions(7), decisions(8));
}

TEST(FaultInjectorTest, UnarmedSitesNeverFail) {
  util::FaultInjector inj(1);
  inj.arm(util::FaultSite::kWalAppend, {1.0, UINT32_MAX});
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.should_fail(util::FaultSite::kStoreRead));
    EXPECT_TRUE(inj.should_fail(util::FaultSite::kWalAppend));
  }
  EXPECT_EQ(inj.checks(util::FaultSite::kStoreRead), 100u);
  EXPECT_EQ(inj.injected(util::FaultSite::kStoreRead), 0u);
  EXPECT_EQ(inj.injected(util::FaultSite::kWalAppend), 100u);
}

TEST(FaultInjectorTest, ConsecutiveCapForcesSuccess) {
  util::FaultInjector inj(3);
  // p=1 with a cap of 3: the stream must be fail,fail,fail,success,...
  inj.arm(util::FaultSite::kWalAppend, {1.0, /*max_consecutive=*/3});
  int run = 0;
  for (int i = 0; i < 100; ++i) {
    if (inj.should_fail(util::FaultSite::kWalAppend)) {
      ++run;
      ASSERT_LE(run, 3);
    } else {
      EXPECT_EQ(run, 3);
      run = 0;
    }
  }
}

TEST(FaultInjectorTest, NullInjectorHookIsFree) {
  EXPECT_FALSE(util::fault(nullptr, util::FaultSite::kWalAppend));
}

// --- retry policy ------------------------------------------------------------

TEST(RetryPolicyTest, BackoffGrowsAndCaps) {
  util::RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds(100);
  policy.max_backoff = std::chrono::microseconds(1000);
  policy.multiplier = 2.0;
  policy.jitter = 0.0;  // deterministic schedule
  EXPECT_EQ(policy.backoff_for(1, 0).count(), 100);
  EXPECT_EQ(policy.backoff_for(2, 0).count(), 200);
  EXPECT_EQ(policy.backoff_for(3, 0).count(), 400);
  EXPECT_EQ(policy.backoff_for(5, 0).count(), 1000);  // capped
  EXPECT_EQ(policy.backoff_for(20, 0).count(), 1000);
}

TEST(RetryPolicyTest, JitterBoundedAndSeeded) {
  util::RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds(1000);
  policy.jitter = 0.5;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto b = policy.backoff_for(1, seed);
    EXPECT_GE(b.count(), 500);
    EXPECT_LE(b.count(), 1000);
    EXPECT_EQ(policy.backoff_for(1, seed), b);  // same seed, same jitter
  }
}

TEST(RetryPolicyTest, RetryWithCountsAttempts) {
  util::RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  std::vector<std::chrono::microseconds> sleeps;
  const auto sleeper = [&](std::chrono::microseconds us) {
    sleeps.push_back(us);
  };
  util::RetryResult r = util::retry_with(
      policy, 1, [&] { return ++calls == 3; }, sleeper);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(sleeps.size(), 2u);  // slept between attempts only

  calls = 0;
  r = util::retry_with(policy, 1, [&] { return ++calls > 99; }, sleeper);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 5u);
}

TEST(RetryPolicyTest, DeadlineStopsRetrying) {
  util::RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff = std::chrono::microseconds(1000);
  policy.jitter = 0.0;
  policy.deadline = std::chrono::microseconds(2500);
  std::chrono::microseconds slept{0};
  const util::RetryResult r = util::retry_with(
      policy, 1, [] { return false; },
      [&](std::chrono::microseconds us) { slept += us; });
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.deadline_exceeded);
  EXPECT_LE(slept.count(), 2500);
  EXPECT_LT(r.attempts, 1000u);
}

// --- WAL ---------------------------------------------------------------------

TEST(WalTest, AppendFlushReplayRoundTrip) {
  TempDir dir("roundtrip");
  WalConfig config;
  config.dir = dir.path();
  config.shards = 4;
  auto wal = Wal::open(config);
  ASSERT_TRUE(wal.has_value()) << wal.error();

  const double a[3] = {1.0, 2.0, 3.0};
  const double b[2] = {9.5, -1.25};
  ASSERT_TRUE(wal.value()->append(0, 42, a, 3));
  ASSERT_TRUE(wal.value()->append_heartbeat(1));
  ASSERT_TRUE(wal.value()->append(1, 42, b, 2));  // same key, later record
  ASSERT_TRUE(wal.value()->flush_all());
  wal.value().reset();  // close files

  std::vector<std::pair<std::uint64_t, std::vector<double>>> seen;
  auto replay = Wal::replay_typed(
      dir.path(), [&](WalRecordType, std::uint64_t key, const double* f,
                      std::size_t n) {
        seen.emplace_back(key, std::vector<double>(f, f + n));
      });
  ASSERT_TRUE(replay.has_value()) << replay.error();
  EXPECT_EQ(replay.value().records, 2u);
  EXPECT_EQ(replay.value().heartbeats, 1u);
  EXPECT_EQ(replay.value().torn_files, 0u);
  ASSERT_EQ(seen.size(), 2u);
  // Same generation, ascending shard order: shard 0's record first. The
  // last record per key wins, which is what upsert replay relies on.
  EXPECT_EQ(seen[0].second, std::vector<double>({1.0, 2.0, 3.0}));
  EXPECT_EQ(seen[1].second, std::vector<double>({9.5, -1.25}));
}

TEST(WalTest, ReplayOfMissingDirIsEmpty) {
  auto replay = Wal::replay_typed(
      (std::filesystem::temp_directory_path() / "resmatch_never_created")
          .string(),
      [](WalRecordType, std::uint64_t, const double*, std::size_t) {
        FAIL();
      });
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay.value().files, 0u);
}

TEST(WalTest, TornTailIsDroppedNotFatal) {
  TempDir dir("torn");
  WalConfig config;
  config.dir = dir.path();
  config.shards = 1;
  auto wal = Wal::open(config);
  ASSERT_TRUE(wal.has_value());
  const double f[1] = {7.0};
  ASSERT_TRUE(wal.value()->append(0, 1, f, 1));
  ASSERT_TRUE(wal.value()->append(0, 2, f, 1));
  wal.value()->simulate_crash(/*leave_torn_tail=*/true);
  wal.value().reset();

  std::size_t records = 0;
  auto replay = Wal::replay_typed(
      dir.path(),
      [&](WalRecordType, std::uint64_t, const double*, std::size_t) {
        ++records;
      });
  ASSERT_TRUE(replay.has_value()) << replay.error();
  // Both flushed records survive; the torn half-frame after them is cut.
  EXPECT_EQ(records, 2u);
  EXPECT_EQ(replay.value().torn_files, 1u);
}

TEST(WalTest, RotationAndGcReplayAcrossGenerations) {
  TempDir dir("rotate");
  WalConfig config;
  config.dir = dir.path();
  config.shards = 2;
  auto wal = Wal::open(config);
  ASSERT_TRUE(wal.has_value());
  const double gen1[1] = {1.0};
  const double gen2[1] = {2.0};
  ASSERT_TRUE(wal.value()->append(0, 5, gen1, 1));
  const std::uint64_t before = wal.value()->generation();
  ASSERT_TRUE(wal.value()->rotate());
  EXPECT_EQ(wal.value()->generation(), before + 1);
  ASSERT_TRUE(wal.value()->append(0, 5, gen2, 1));
  ASSERT_TRUE(wal.value()->flush_all());

  // Both generations replay, oldest first — the later record wins.
  std::vector<double> values;
  auto replay = Wal::replay_typed(
      dir.path(), [&](WalRecordType, std::uint64_t, const double* f,
                      std::size_t) { values.push_back(f[0]); });
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(values, std::vector<double>({1.0, 2.0}));

  // GC removes only generations below the current one.
  wal.value()->remove_old_generations();
  values.clear();
  replay = Wal::replay_typed(
      dir.path(), [&](WalRecordType, std::uint64_t, const double* f,
                      std::size_t) { values.push_back(f[0]); });
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(values, std::vector<double>({2.0}));
}

TEST(WalTest, NewSessionStartsAboveExistingGenerations) {
  TempDir dir("generations");
  WalConfig config;
  config.dir = dir.path();
  config.shards = 1;
  {
    auto wal = Wal::open(config);
    ASSERT_TRUE(wal.has_value());
    ASSERT_TRUE(wal.value()->rotate());
    ASSERT_TRUE(wal.value()->rotate());
    EXPECT_EQ(wal.value()->generation(), 3u);
  }
  auto wal = Wal::open(config);
  ASSERT_TRUE(wal.has_value());
  EXPECT_GT(wal.value()->generation(), 3u);
}

TEST(WalTest, InjectedAppendFaultRepairsAndRetrySucceeds) {
  TempDir dir("inject");
  util::FaultInjector injector(11);
  injector.arm(util::FaultSite::kWalAppend, {1.0, /*max_consecutive=*/2});
  WalConfig config;
  config.dir = dir.path();
  config.shards = 1;
  config.faults = &injector;
  auto wal = Wal::open(config);
  ASSERT_TRUE(wal.has_value());
  const double f[1] = {3.5};
  // p=1, cap=2: two refusals, then the forced success.
  EXPECT_FALSE(wal.value()->append(0, 9, f, 1));
  EXPECT_FALSE(wal.value()->append(0, 9, f, 1));
  EXPECT_TRUE(wal.value()->append(0, 9, f, 1));
  EXPECT_EQ(wal.value()->stats().append_failures, 2u);
  ASSERT_TRUE(wal.value()->flush_all());
  wal.value().reset();

  // The repaired log holds exactly the one accepted record — refused
  // appends must not leave torn frames mid-file.
  std::size_t records = 0;
  auto replay = Wal::replay_typed(
      dir.path(),
      [&](WalRecordType, std::uint64_t key, const double* fields,
          std::size_t n) {
        ++records;
        EXPECT_EQ(key, 9u);
        ASSERT_EQ(n, 1u);
        EXPECT_EQ(fields[0], 3.5);
      });
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(replay.value().torn_files, 0u);
}

TEST(WalTest, FsyncFaultDoesNotCorruptBufferOrDropLaterAppends) {
  // A failed fsync happens AFTER the write consumed the buffer. The
  // append must report failure without rolling the buffer back: rolling
  // back would zero-fill garbage for the next flush to bury mid-log and
  // underflow the pending count, leaving later acked appends unflushed.
  TempDir dir("fsyncfail");
  util::FaultInjector injector(19);
  injector.arm(util::FaultSite::kWalFsync, {1.0, /*max_consecutive=*/2});
  WalConfig config;
  config.dir = dir.path();
  config.shards = 1;
  config.fsync_every = 1;  // every flush attempts the (faulted) fsync
  config.faults = &injector;
  auto wal = Wal::open(config);
  ASSERT_TRUE(wal.has_value()) << wal.error();

  const double f[1] = {2.5};
  // p=1, cap=2: two appends write their record but fail the fsync; the
  // third fsync is forced through.
  EXPECT_FALSE(wal.value()->append(0, 7, f, 1));
  EXPECT_FALSE(wal.value()->append(0, 7, f, 1));
  EXPECT_TRUE(wal.value()->append(0, 7, f, 1));
  EXPECT_EQ(wal.value()->stats().append_failures, 2u);
  ASSERT_TRUE(wal.value()->flush_all());
  wal.value().reset();

  // All three copies are in the file (unacked-but-written records may
  // duplicate; replay's last-wins upsert absorbs that) and the log parses
  // to the end — no zero-length frame stops replay partway.
  std::size_t records = 0;
  auto replay = Wal::replay_typed(
      dir.path(), [&](WalRecordType, std::uint64_t key, const double* fields,
                      std::size_t n) {
        ++records;
        EXPECT_EQ(key, 7u);
        ASSERT_EQ(n, 1u);
        EXPECT_EQ(fields[0], 2.5);
      });
  ASSERT_TRUE(replay.has_value()) << replay.error();
  EXPECT_EQ(records, 3u);
  EXPECT_EQ(replay.value().torn_files, 0u);
}

TEST(WalTest, FsyncFaultWithBatchedFlushKeepsLogParseable) {
  // Same failure with flush_every > 1: when the fsync fails the buffer
  // held several frames, so a bad rollback would plant that many bytes of
  // zero-fill garbage mid-log. Every accepted record must replay.
  TempDir dir("fsyncbatch");
  util::FaultInjector injector(29);
  injector.arm(util::FaultSite::kWalFsync, {1.0, /*max_consecutive=*/2});
  WalConfig config;
  config.dir = dir.path();
  config.shards = 1;
  config.flush_every = 2;
  config.fsync_every = 1;
  config.faults = &injector;
  auto wal = Wal::open(config);
  ASSERT_TRUE(wal.has_value()) << wal.error();

  const double f[1] = {4.0};
  EXPECT_TRUE(wal.value()->append(0, 1, f, 1));   // buffered
  EXPECT_FALSE(wal.value()->append(0, 2, f, 1));  // written, fsync fails
  EXPECT_TRUE(wal.value()->append(0, 3, f, 1));   // buffered
  EXPECT_FALSE(wal.value()->append(0, 4, f, 1));  // written, fsync fails
  EXPECT_TRUE(wal.value()->append(0, 5, f, 1));   // buffered
  ASSERT_TRUE(wal.value()->flush_all());          // fsync forced through
  wal.value().reset();

  std::vector<std::uint64_t> keys;
  auto replay = Wal::replay_typed(
      dir.path(),
      [&](WalRecordType, std::uint64_t key, const double*, std::size_t) {
        keys.push_back(key);
      });
  ASSERT_TRUE(replay.has_value()) << replay.error();
  EXPECT_EQ(keys, std::vector<std::uint64_t>({1, 2, 3, 4, 5}));
  EXPECT_EQ(replay.value().torn_files, 0u);
}

TEST(WalTest, FailedRotationLeavesEveryShardServingAndRetryable) {
  // A rotation that fails partway (some next-generation files created,
  // one refused) must leave all shards appending to their current files,
  // leave no partial generation behind, and succeed when retried.
  TempDir dir("rotatefail");
  util::FaultInjector injector(31);
  injector.arm(util::FaultSite::kWalRotate, {0.5, UINT32_MAX});
  WalConfig config;
  config.dir = dir.path();
  config.shards = 4;
  config.faults = &injector;
  auto wal = Wal::open(config);
  ASSERT_TRUE(wal.has_value()) << wal.error();
  const std::uint64_t gen0 = wal.value()->generation();

  const double f[1] = {6.0};
  for (std::size_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(wal.value()->append(s, s, f, 1));
  }
  std::size_t failed = 0;
  for (int i = 0; i < 8; ++i) {
    if (!wal.value()->rotate()) ++failed;
  }
  ASSERT_GT(failed, 0u);  // the seeded schedule injects some failures
  // Every shard still accepts appends, whatever generation it is on.
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(wal.value()->append(s, 100 + s, f, 1));
  }
  // Failed rotations must not advance the generation counter.
  EXPECT_EQ(wal.value()->generation(), gen0 + (8 - failed));

  injector.arm(util::FaultSite::kWalRotate, {0.0, UINT32_MAX});
  EXPECT_TRUE(wal.value()->rotate());  // retry heals, no O_EXCL collision
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(wal.value()->append(s, 200 + s, f, 1));
  }
  ASSERT_TRUE(wal.value()->flush_all());
  const std::uint64_t final_gen = wal.value()->generation();
  wal.value().reset();

  // No orphaned partial generation: every surviving file belongs to a
  // generation a completed rotation produced, and all 12 records replay.
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path())) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 4u * (final_gen - gen0 + 1));
  std::size_t records = 0;
  auto replay = Wal::replay_typed(
      dir.path(),
      [&](WalRecordType, std::uint64_t, const double*, std::size_t) {
        ++records;
      });
  ASSERT_TRUE(replay.has_value()) << replay.error();
  EXPECT_EQ(records, 12u);
  EXPECT_EQ(replay.value().torn_files, 0u);
}

TEST(WalTest, NearMissFilenamesAreNeitherReplayedNorCollected) {
  TempDir dir("nearmiss");
  std::filesystem::create_directories(dir.path());
  // Trailing garbage after ".log" must not read as a live log: not
  // replayed, not counted into the generation scan, not GC'd.
  std::ofstream(dir.path() + "/wal-9-0.log.bak") << "operator backup";
  std::ofstream(dir.path() + "/wal-7-0.logx") << "not a log";
  WalConfig config;
  config.dir = dir.path();
  config.shards = 1;
  auto wal = Wal::open(config);
  ASSERT_TRUE(wal.has_value()) << wal.error();
  EXPECT_EQ(wal.value()->generation(), 1u);  // 9 and 7 were ignored
  const double f[1] = {8.0};
  ASSERT_TRUE(wal.value()->append(0, 1, f, 1));
  ASSERT_TRUE(wal.value()->rotate());
  wal.value()->remove_old_generations();
  wal.value().reset();

  auto replay = Wal::replay_typed(
      dir.path(),
      [](WalRecordType, std::uint64_t, const double*, std::size_t) {});
  ASSERT_TRUE(replay.has_value()) << replay.error();
  EXPECT_EQ(replay.value().files, 1u);  // only the real (rotated) log
  EXPECT_EQ(replay.value().torn_files, 0u);
  // GC removed generation 1 but left the near-miss names untouched.
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/wal-1-0.log"));
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/wal-9-0.log.bak"));
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/wal-7-0.logx"));
}

std::string to_hex(const std::vector<char>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(WalTest, GoldenLogBytes) {
  // The log a build writes must stay readable by every later build: the
  // round-trip tests above would pass under a frame or checksum change
  // that reader and writer share, so this pins the file byte for byte.
  // Little-endian, the host order every supported target has.
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the golden log is recorded in little-endian order";
  }
  // Magic, then one frame per line: u32 length | u32 CRC-32 | u8 type |
  // u64 key | f64 fields.
  const std::string golden =
      "52534d57414c3031"
      "31000000" "088e8088"  // upsert: 5 fields
      "01efcdab8967452301"
      "0000000000002940000000000000304000000000000000400000000000000000"
      "0000000000002040"
      "09000000" "283cffc8"  // heartbeat
      "020000000000000000"
      "21000000" "017ffd71"  // model state: 3 fields
      "030000000000000000"
      "000000000000f03f0000000000000840000000000000e0bf";
  const std::uint64_t key = 0x0123456789ABCDEFull;
  const std::vector<double> group = {12.5, 16.0, 2.0, 0.0, 8.0};
  const std::vector<double> model = {1.0, 3.0, -0.5};

  TempDir dir("golden");
  WalConfig config;
  config.dir = dir.path();
  config.shards = 1;
  {
    auto wal = Wal::open(config);
    ASSERT_TRUE(wal.has_value()) << wal.error();
    ASSERT_TRUE(wal.value()->append(0, key, group.data(), group.size()));
    ASSERT_TRUE(wal.value()->append_heartbeat(0));
    ASSERT_TRUE(
        wal.value()->append_model_buffered(0, model.data(), model.size()));
    ASSERT_TRUE(wal.value()->flush_all());
  }
  std::ifstream in(dir.path() + "/wal-1-0.log", std::ios::binary);
  const std::vector<char> written((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(to_hex(written), golden);

  // Replay the committed bytes, not the file just written.
  TempDir replay_dir("golden_replay");
  std::filesystem::create_directories(replay_dir.path());
  {
    std::ofstream out(replay_dir.path() + "/wal-1-0.log", std::ios::binary);
    for (std::size_t i = 0; i < golden.size(); i += 2) {
      out.put(
          static_cast<char>(std::stoul(golden.substr(i, 2), nullptr, 16)));
    }
  }
  std::vector<std::tuple<WalRecordType, std::uint64_t, std::vector<double>>>
      seen;
  auto replay = Wal::replay_typed(
      replay_dir.path(), [&](WalRecordType type, std::uint64_t k,
                             const double* f, std::size_t n) {
        seen.emplace_back(type, k, std::vector<double>(f, f + n));
      });
  ASSERT_TRUE(replay.has_value()) << replay.error();
  EXPECT_EQ(replay.value().records, 1u);
  EXPECT_EQ(replay.value().heartbeats, 1u);
  EXPECT_EQ(replay.value().model_records, 1u);
  EXPECT_EQ(replay.value().torn_files, 0u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_tuple(WalRecordType::kUpsert, key, group));
  EXPECT_EQ(seen[1], std::make_tuple(WalRecordType::kModelState,
                                     std::uint64_t{0}, model));
}

/// Bytes of a whole file.
std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Bytes of a hex literal such as the golden snapshot.
std::vector<char> from_hex(const std::string& hex) {
  std::vector<char> out;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

using Record = std::tuple<WalRecordType, std::uint64_t, std::vector<double>>;

/// Every record of the snapshot at `path`, or the reason it was refused.
util::Expected<std::vector<Record>> snapshot_records(const std::string& path) {
  std::vector<Record> seen;
  const auto read = read_snapshot(
      path, [&](WalRecordType type, std::uint64_t key, const double* f,
                std::size_t n) {
        seen.emplace_back(type, key, std::vector<double>(f, f + n));
        return true;
      });
  if (!read) return util::Expected<std::vector<Record>>::failure(read.error());
  EXPECT_EQ(read.value(), seen.size());
  return seen;
}

/// write_snapshot of `records`, in order.
bool save_records(const std::string& path, const std::vector<Record>& records) {
  return write_snapshot(path, [&](const RecordSink& put) {
    for (const auto& [type, key, fields] : records) {
      put(type, key, fields.data(), fields.size());
    }
  });
}

TEST(SnapshotTest, GoldenBytes) {
  // A snapshot a build writes must stay readable by every later build, as
  // the log must (GoldenLogBytes): the same frames, its own magic, and an
  // end frame whose key counts the frames before it.
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the golden snapshot is recorded in little-endian order";
  }
  // Magic, then one frame per line: u32 length | u32 CRC-32 | u8 type |
  // u64 key | f64 fields.
  const std::string golden =
      "52534d534e415031"
      "31000000" "088e8088"  // upsert: 5 fields
      "01efcdab8967452301"
      "0000000000002940000000000000304000000000000000400000000000000000"
      "0000000000002040"
      "31000000" "1a1e80ce"  // upsert: 5 fields
      "012a00000000000000"
      "00000000000010400000000000002040000000000000f03f000000000000f03f"
      "0000000000001040"
      "21000000" "017ffd71"  // model state: 3 fields
      "030000000000000000"
      "000000000000f03f0000000000000840000000000000e0bf"
      "09000000" "41426a35"  // end: 3 frames before it
      "040300000000000000";
  const std::vector<Record> records = {
      {WalRecordType::kUpsert, 0x0123456789ABCDEFull,
       {12.5, 16.0, 2.0, 0.0, 8.0}},
      {WalRecordType::kUpsert, 42, {4.0, 8.0, 1.0, 1.0, 4.0}},
      {WalRecordType::kModelState, 0, {1.0, 3.0, -0.5}},
  };
  TempDir dir("snapshot_golden");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/snapshot.csv";
  ASSERT_TRUE(save_records(path, records));
  EXPECT_EQ(to_hex(read_bytes(path)), golden);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Decode the committed bytes, not the file just written.
  const std::string committed = dir.path() + "/golden.snap";
  write_bytes(committed, from_hex(golden));
  const auto decoded = snapshot_records(committed);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded.value(), records);
}

TEST(SnapshotTest, EveryCutAndEveryFlippedByteIsRejected) {
  // A snapshot is published whole (temp file, fsync, rename), so unlike a
  // log it has no torn tail to stop at: a file cut anywhere, or with any
  // byte changed, must fail to load rather than restore fewer groups.
  const std::vector<Record> records = {
      {WalRecordType::kUpsert, 7, {16.0, 32.0, 2.0, 0.0, 0.0}},
      {WalRecordType::kUpsert, 8, {4.0, 8.0, 1.0, 1.0, 4.0}},
      {WalRecordType::kUpsert, 9, {32.0, 32.0, 2.0, 0.0, 0.0}},
      {WalRecordType::kModelState, 0, {0.25, -1.0}},
  };
  TempDir dir("snapshot_damage");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/whole.snap";
  ASSERT_TRUE(save_records(path, records));
  const std::vector<char> whole = read_bytes(path);
  ASSERT_EQ(snapshot_records(path).value(), records);

  const std::string damaged = dir.path() + "/damaged.snap";
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    write_bytes(damaged, {whole.begin(), whole.begin() + cut});
    EXPECT_FALSE(snapshot_records(damaged).has_value()) << "cut at " << cut;
  }
  for (std::size_t i = 0; i < whole.size(); ++i) {
    for (const unsigned char mask : {0x01, 0xFF}) {
      std::vector<char> flipped = whole;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      write_bytes(damaged, flipped);
      EXPECT_FALSE(snapshot_records(damaged).has_value())
          << "byte " << i << " ^ " << static_cast<int>(mask);
    }
  }
  // Whole good frames in the wrong number fail too: one dropped from the
  // middle leaves the end frame's count one high, and nothing may follow
  // the end frame.
  constexpr std::size_t kGroupFrame = 57;  // 8-B header, type, key, 5 f64
  std::vector<char> dropped = whole;
  dropped.erase(dropped.begin() + 8 + kGroupFrame,
                dropped.begin() + 8 + 2 * kGroupFrame);
  write_bytes(damaged, dropped);
  EXPECT_FALSE(snapshot_records(damaged).has_value());
  std::vector<char> extended = whole;
  extended.insert(extended.end(), whole.begin() + 8,
                  whole.begin() + 8 + kGroupFrame);
  write_bytes(damaged, extended);
  EXPECT_FALSE(snapshot_records(damaged).has_value());
  EXPECT_FALSE(snapshot_records(dir.path() + "/missing.snap").has_value());
}

TEST(WalTest, FrameOverOneMibReplaysThroughLogAndSnapshot) {
  // A frame's length is bounded by the bytes left in its file, not by a
  // fixed cap: an ensemble model's state passes 1 MiB near 13k groups,
  // and a capped reader would drop that frame and every later one of the
  // file.
  std::vector<double> model(140000);
  for (std::size_t i = 0; i < model.size(); ++i) {
    model[i] = static_cast<double>(i) * 0.5;
  }
  const std::vector<double> group = {16.0, 32.0, 2.0, 0.0, 0.0};
  const std::vector<Record> expected = {
      {WalRecordType::kModelState, 0, model},
      {WalRecordType::kUpsert, 11, group},
  };

  TempDir dir("bigframe");
  WalConfig config;
  config.dir = dir.path();
  config.shards = 1;
  {
    auto wal = Wal::open(config);
    ASSERT_TRUE(wal.has_value()) << wal.error();
    ASSERT_TRUE(
        wal.value()->append_model_buffered(0, model.data(), model.size()));
    ASSERT_TRUE(wal.value()->append_buffered(0, 11, group.data(), 5));
    ASSERT_TRUE(wal.value()->flush_all());
  }
  std::vector<Record> seen;
  auto replay = Wal::replay_typed(
      dir.path(), [&](WalRecordType type, std::uint64_t key, const double* f,
                      std::size_t n) {
        seen.emplace_back(type, key, std::vector<double>(f, f + n));
      });
  ASSERT_TRUE(replay.has_value()) << replay.error();
  EXPECT_EQ(replay.value().torn_files, 0u);
  EXPECT_EQ(seen, expected);

  const std::string path = dir.path() + "/snapshot.csv";
  ASSERT_TRUE(save_records(path, expected));
  const auto loaded = snapshot_records(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(loaded.value(), expected);
}

// --- matchd + WAL ------------------------------------------------------------

TEST(MatchdWalTest, WalOnDecisionsMatchWalOff) {
  TempDir dir("equiv");
  MatchdConfig with_wal;
  with_wal.durability.wal_dir = dir.path();
  Matchd durable(with_wal);
  durable.set_ladder(test_ladder());
  Matchd plain;  // default config: no WAL
  plain.set_ladder(test_ladder());
  for (std::uint64_t n = 0; n < 500; ++n) {
    EXPECT_EQ(drive_job(durable, make_job(n)),
              drive_job(plain, make_job(n)));
  }
  EXPECT_TRUE(durable.wal_enabled());
  EXPECT_FALSE(plain.wal_enabled());
  EXPECT_EQ(durable.stats().wal.appends, 1000u);  // submit + feedback each
}

TEST(MatchdWalTest, RecoveryReconstructsByteIdenticalState) {
  // The tentpole property: for any injector seed, snapshot + WAL replay
  // rebuilds the exact store state of the crashed service.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    TempDir dir("property_" + std::to_string(seed));
    util::FaultInjector injector(seed);
    // Cap (3) below retry budget (6): faults slow commits, never drop them.
    injector.arm(util::FaultSite::kWalAppend, {0.2, 3});
    MatchdConfig config;
    config.durability.wal_dir = dir.path();
    config.durability.faults = &injector;
    config.durability.compact_every = 150;  // a few compactions mid-run

    std::multiset<std::string> before;
    {
      Matchd service(config);
      service.set_ladder(test_ladder());
      for (std::uint64_t n = 0; n < 400 + seed * 37; ++n) {
        drive_job(service, make_job(n * seed + 1));
      }
      ASSERT_EQ(service.stats().wal_giveups, 0u);
      before = store_rows(service, "before_" + std::to_string(seed));
      service.simulate_crash(/*leave_torn_tail=*/seed % 2 == 0);
    }

    Matchd restarted(config);
    restarted.set_ladder(test_ladder());
    auto recovery = restarted.recover();
    ASSERT_TRUE(recovery.has_value()) << recovery.error();
    EXPECT_EQ(recovery.value().invalid_records, 0u);
    EXPECT_EQ(store_rows(restarted, "after_" + std::to_string(seed)),
              before);
  }
}

TEST(MatchdWalTest, CrashReplayDecisionEquivalence) {
  // End-to-end chaos harness: crash mid-workload under injected faults,
  // recover, and demand a byte-identical decision stream.
  // The compact_every arm checkpoints mid-run, so recovery goes through a
  // snapshot and replays only the log written after it. A rotation makes
  // 16 fault checks (a flush fsync and a file create per WAL shard) with
  // no retry, so at this rate about one compaction window in five gets
  // through; 25 gives each seed several, and a log tail after the last.
  trace::Workload workload = trace::generate_cm5_small(/*seed=*/3, 600);
  const sim::ClusterSpec cluster = sim::cm5_heterogeneous(24.0, 16);
  for (const std::uint64_t compact_every : {0u, 25u}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const std::string tag =
          std::to_string(seed) + "_" + std::to_string(compact_every);
      TempDir dir("crashreplay_" + tag);
      util::FaultInjector injector(seed);
      injector.arm_all({0.1, /*max_consecutive=*/3});
      sim::CrashReplayConfig config;
      config.matchd.durability.wal_dir = dir.path();
      config.matchd.durability.faults = &injector;
      config.matchd.durability.compact_every = compact_every;
      config.crash_after = 200 + 50 * seed;
      config.torn_tail = seed % 2 == 1;
      const sim::CrashReplayResult result =
          sim::crash_replay(workload, cluster, config);
      EXPECT_EQ(result.decisions, workload.jobs.size());
      EXPECT_EQ(result.mismatches, 0u) << tag;
      EXPECT_TRUE(result.identical()) << tag << ": " << result.recovery_error;
      EXPECT_GT(result.recovery.wal_records, 0u) << tag;
      if (compact_every > 0) {
        EXPECT_GT(result.recovery.snapshot_rows, 0u) << tag;
      }
    }
  }
}

TEST(MatchdWalTest, CrashReplayReportsAFailedRecovery) {
  // With no traffic before the crash, an empty store serves the rest of
  // the workload exactly as the reference does, so only the recovery
  // error can tell that recover() refused the directory's snapshot.
  trace::Workload workload = trace::generate_cm5_small(/*seed=*/3, 200);
  TempDir dir("crashreplay_badsnap");
  std::filesystem::create_directories(dir.path());
  std::ofstream(dir.path() + "/snapshot.csv") << "not a snapshot\n";
  sim::CrashReplayConfig config;
  config.matchd.durability.wal_dir = dir.path();
  config.crash_after = 0;
  const sim::CrashReplayResult result =
      sim::crash_replay(workload, sim::cm5_heterogeneous(24.0, 16), config);
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_FALSE(result.identical());
  EXPECT_NE(result.recovery_error.find(dir.path() + "/snapshot.csv"),
            std::string::npos)
      << result.recovery_error;
}

TEST(MatchdWalTest, ModelRecoveryRestoresAByteIdenticalTwin) {
  // The learned-model flavour of the tentpole property: with a quantile or
  // ensemble estimator attached, crash + recover() must restore the model
  // byte-identically, and the recovered service's decision stream must
  // track an uncrashed twin exactly from then on. The batched input runs
  // one worker and admits traffic a half-block at a time, so each batch
  // holds 20 model requests: the batch path must apply them in arrival
  // order and force them to disk, or the synchronous twin fed the same
  // blocks falls out of lockstep.
  for (const bool batched : {false, true}) {
    for (const std::string name : {"quantile", "ensemble"}) {
      const std::string tag = name + (batched ? "_batched" : "");
      TempDir dir("model_" + tag);
      TempDir twin_dir("model_twin_" + tag);
      MatchdConfig config;
      config.durability.wal_dir = dir.path();
      config.model_estimator = name;
      // Warm quickly so grants genuinely diverge from pass-through before
      // the crash — otherwise the equality below would be vacuous.
      config.model_options.min_observations = 40;
      MatchdConfig twin_config = config;
      twin_config.durability.wal_dir = twin_dir.path();
      if (batched) {
        config.workers = 1;
        config.batch_max = 64;
      }
      const std::size_t block = batched ? 20 : 1;

      Matchd twin(twin_config);
      twin.set_ladder(test_ladder());
      std::vector<double> before;
      {
        Matchd service(config);
        service.set_ladder(test_ladder());
        ASSERT_TRUE(service.model_enabled());
        bool lowered = false;
        for (std::uint64_t n = 0; n < 300; n += block) {
          const std::vector<MiB> granted = drive_block(service, n, block);
          ASSERT_EQ(drive_block(twin, n, block), granted)
              << tag << " block at job " << n;
          ASSERT_EQ(service.model_state(), twin.model_state())
              << tag << " block at job " << n;
          for (std::size_t i = 0; i < block; ++i) {
            const MiB request = make_job(n + i, 8).requested_mem_mib;
            lowered = lowered || granted[i] < test_ladder().round_up(request);
          }
        }
        EXPECT_TRUE(lowered) << tag << " never left pass-through";
        if (batched) {
          EXPECT_LT(service.stats().batch_drains, 2 * 300u) << tag;
        }
        before = service.model_state();
        ASSERT_FALSE(before.empty());
        service.simulate_crash(/*leave_torn_tail=*/name == "ensemble");
      }

      Matchd restarted(config);
      restarted.set_ladder(test_ladder());
      auto recovery = restarted.recover();
      ASSERT_TRUE(recovery.has_value()) << recovery.error();
      EXPECT_GT(recovery.value().model_records, 0u);
      EXPECT_EQ(recovery.value().invalid_records, 0u);
      EXPECT_EQ(restarted.model_state(), before) << tag;
      EXPECT_EQ(restarted.model_state(), twin.model_state()) << tag;

      // Post-recovery traffic: grants and the evolving model state must
      // stay in lockstep with the twin that never crashed.
      for (std::uint64_t n = 300; n < 420; n += block) {
        EXPECT_EQ(drive_block(restarted, n, block), drive_block(twin, n, block))
            << tag << " block at job " << n;
      }
      EXPECT_EQ(restarted.model_state(), twin.model_state()) << tag;
    }
  }
}

TEST(MatchdWalTest, CrashReplayDecisionEquivalenceForLearnedModels) {
  // End-to-end: the crash-replay harness with a learned model attached —
  // the recovered stream must be byte-identical to the fault-free run,
  // and recovery must actually have replayed model-state frames.
  trace::Workload workload = trace::generate_cm5_small(/*seed=*/7, 500);
  const sim::ClusterSpec cluster = sim::cm5_heterogeneous(24.0, 16);
  for (const std::string name : {"quantile", "ensemble"}) {
    TempDir dir("crashmodel_" + name);
    sim::CrashReplayConfig config;
    config.matchd.durability.wal_dir = dir.path();
    config.matchd.model_estimator = name;
    config.matchd.model_options.min_observations = 50;
    config.crash_after = 250;
    config.torn_tail = name == "quantile";
    const sim::CrashReplayResult result =
        sim::crash_replay(workload, cluster, config);
    EXPECT_EQ(result.decisions, workload.jobs.size());
    EXPECT_EQ(result.mismatches, 0u) << name;
    EXPECT_TRUE(result.identical()) << name;
    EXPECT_GT(result.recovery.model_records, 0u) << name;
  }
}

TEST(MatchdWalTest, DegradedModeServesPassThroughAndRecovers) {
  TempDir dir("degraded");
  util::FaultInjector injector(5);
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.faults = &injector;
  config.durability.retry.max_attempts = 3;
  Matchd service(config);
  service.set_ladder(test_ladder());

  const trace::JobRecord lowered_job = make_job(1);
  // Teach the group so its grant is genuinely below the request.
  for (int i = 0; i < 5; ++i) drive_job(service, lowered_job);
  const MiB learned = service.submit(lowered_job).granted_mib;
  ASSERT_LT(learned, test_ladder().round_up(lowered_job.requested_mem_mib));

  // Persistent WAL failure: retries exhaust, service flips to degraded.
  injector.arm(util::FaultSite::kWalAppend, {1.0, UINT32_MAX});
  (void)service.submit(lowered_job);
  EXPECT_TRUE(service.degraded());
  EXPECT_GT(service.stats().wal_giveups, 0u);

  // Degraded submissions are pass-through: the raw rounded request, not
  // the learned estimate; feedback is dropped, not learned.
  const MatchDecision degraded = service.submit(lowered_job);
  EXPECT_EQ(degraded.granted_mib,
            test_ladder().round_up(lowered_job.requested_mem_mib));
  EXPECT_FALSE(degraded.lowered);
  service.feedback(lowered_job, core::Feedback{});
  EXPECT_GE(service.stats().degraded_ops, 2u);

  // Heal the log: the next operation's heartbeat probe restores service,
  // and the learned estimate is still there (memory was never lost).
  injector.arm(util::FaultSite::kWalAppend, {0.0, UINT32_MAX});
  const MatchDecision healed = service.submit(lowered_job);
  EXPECT_FALSE(service.degraded());
  EXPECT_LT(healed.granted_mib,
            test_ladder().round_up(lowered_job.requested_mem_mib));
}

TEST(MatchdWalTest, ShutdownFlushesBufferedRecords) {
  // With a huge flush cadence every record sits in user-space buffers;
  // only the destructor's drain-path flush makes them durable.
  TempDir dir("shutdown");
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.wal_flush_every = 1U << 20;
  config.workers = 2;  // exercise close-queue -> join -> flush ordering
  {
    Matchd service(config);
    service.set_ladder(test_ladder());
    for (std::uint64_t n = 0; n < 50; ++n) drive_job(service, make_job(n));
    service.drain();
  }  // clean shutdown
  std::size_t records = 0;
  auto replay = Wal::replay_typed(
      dir.path(),
      [&](WalRecordType, std::uint64_t, const double*, std::size_t) {
        ++records;
      });
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(records, 100u);  // every submit + feedback reached disk
}

TEST(MatchdWalTest, CrashDropsWhatFlushCadenceHadNotWritten) {
  // The counter-experiment to ShutdownFlushesBufferedRecords: crash
  // instead of shutting down and the buffered records are gone. Together
  // they pin the commit point exactly at the flush.
  TempDir dir("crashdrop");
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.wal_flush_every = 1U << 20;
  {
    Matchd service(config);
    service.set_ladder(test_ladder());
    for (std::uint64_t n = 0; n < 50; ++n) drive_job(service, make_job(n));
    service.simulate_crash();
  }
  std::size_t records = 0;
  auto replay = Wal::replay_typed(
      dir.path(),
      [&](WalRecordType, std::uint64_t, const double*, std::size_t) {
        ++records;
      });
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(records, 0u);
}

TEST(MatchdWalTest, FlushWalMakesBufferedRecordsSurviveACrash) {
  // The operator's on-demand flush: with a huge flush cadence the records
  // sit in user-space buffers, and only flush_wal() before the crash
  // makes them durable (CrashDropsWhatFlushCadenceHadNotWritten is the
  // arm without it).
  for (const bool flushed : {false, true}) {
    TempDir dir(flushed ? "flushwal" : "noflushwal");
    MatchdConfig config;
    config.durability.wal_dir = dir.path();
    config.durability.wal_flush_every = 1U << 20;
    {
      Matchd service(config);
      service.set_ladder(test_ladder());
      for (std::uint64_t n = 0; n < 50; ++n) drive_job(service, make_job(n));
      if (flushed) {
        EXPECT_TRUE(service.flush_wal());
      }
      service.simulate_crash();
    }
    std::size_t records = 0;
    auto replay = Wal::replay_typed(
        dir.path(),
        [&](WalRecordType, std::uint64_t, const double*, std::size_t) {
          ++records;
        });
    ASSERT_TRUE(replay.has_value());
    EXPECT_EQ(records, flushed ? 100u : 0u);
  }
}

TEST(MatchdWalTest, CsvSnapshotFromAnOlderBuildFailsRecoveryNamingTheFile) {
  // A compaction already deleted the generations an old CSV snapshot
  // replaced, so recovery must refuse it by name, never replay without it.
  TempDir dir("csvsnapshot");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/snapshot.csv";
  std::ofstream(path) << "resmatch-estimator-store,1,successive-approximation\n"
                         "7,16,32,2,0,0\n";
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  Matchd service(config);
  const auto recovery = service.recover();
  ASSERT_FALSE(recovery.has_value());
  EXPECT_NE(recovery.error().find(path), std::string::npos)
      << recovery.error();
  EXPECT_EQ(service.stats().groups, 0u);
}

TEST(MatchdWalTest, CheckpointCompactsAndRecoversFromSnapshot) {
  TempDir dir("checkpoint");
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  std::multiset<std::string> before;
  {
    Matchd service(config);
    service.set_ladder(test_ladder());
    for (std::uint64_t n = 0; n < 300; ++n) drive_job(service, make_job(n));
    ASSERT_TRUE(service.checkpoint());
    EXPECT_EQ(service.stats().compactions, 1u);
    before = store_rows(service, "checkpoint_before");
    service.simulate_crash();
  }
  ASSERT_TRUE(std::filesystem::exists(dir.path() + "/snapshot.csv"));

  Matchd restarted(config);
  restarted.set_ladder(test_ladder());
  auto recovery = restarted.recover();
  ASSERT_TRUE(recovery.has_value()) << recovery.error();
  EXPECT_GT(recovery.value().snapshot_rows, 0u);
  EXPECT_EQ(recovery.value().wal_records, 0u);  // log was compacted away
  EXPECT_EQ(store_rows(restarted, "checkpoint_after"), before);
}

TEST(MatchdWalTest, FailedSnapshotKeepsOldGenerations) {
  TempDir dir("failedsnap");
  util::FaultInjector injector(9);
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.faults = &injector;
  config.durability.retry.max_attempts = 2;
  std::multiset<std::string> before;
  {
    Matchd service(config);
    service.set_ladder(test_ladder());
    for (std::uint64_t n = 0; n < 100; ++n) drive_job(service, make_job(n));
    // Snapshot write always fails: the checkpoint must report failure and
    // leave every pre-rotation log file in place.
    injector.arm(util::FaultSite::kStoreWrite, {1.0, UINT32_MAX});
    EXPECT_FALSE(service.checkpoint());
    EXPECT_EQ(service.stats().compactions, 0u);
    // Disarm so the comparison snapshot below goes through.
    injector.arm(util::FaultSite::kStoreWrite, {0.0, UINT32_MAX});
    before = store_rows(service, "failedsnap_before");
    service.simulate_crash();
  }
  Matchd restarted(config);
  restarted.set_ladder(test_ladder());
  auto recovery = restarted.recover();
  ASSERT_TRUE(recovery.has_value()) << recovery.error();
  EXPECT_EQ(recovery.value().wal_records, 200u);  // nothing was GC'd
  EXPECT_EQ(store_rows(restarted, "failedsnap_after"), before);
}

TEST(MatchdWalTest, FailedCompactionBacksOffInsteadOfRetryingPerOp) {
  // While snapshots fail, auto-compaction must not re-enter on every
  // committed operation: that would rotate a fresh generation of shard
  // files per op (unbounded disk) and run a full retried snapshot inline
  // on the serving thread. One rotation, then back off a compact_every
  // window between attempts — and never rotate again until the pending
  // snapshot lands.
  TempDir dir("compactbackoff");
  util::FaultInjector injector(37);
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.faults = &injector;
  config.durability.retry.max_attempts = 2;
  config.durability.compact_every = 20;
  Matchd service(config);
  service.set_ladder(test_ladder());

  injector.arm(util::FaultSite::kStoreWrite, {1.0, UINT32_MAX});
  for (std::uint64_t n = 0; n < 200; ++n) {
    drive_job(service, make_job(n));  // 400 appends = many failed attempts
  }
  EXPECT_EQ(service.stats().compactions, 0u);
  EXPECT_EQ(service.stats().wal.rotations, 1u);  // rotated once, ever

  // Disk heals: the next window's attempt finishes the pending snapshot
  // (without another rotation) and GC runs. 10 jobs = 20 appends crosses
  // the compact_every threshold exactly once wherever the counter stood.
  injector.arm(util::FaultSite::kStoreWrite, {0.0, UINT32_MAX});
  for (std::uint64_t n = 200; n < 210; ++n) {
    drive_job(service, make_job(n));
  }
  EXPECT_EQ(service.stats().compactions, 1u);
  EXPECT_EQ(service.stats().wal.rotations, 1u);
  ASSERT_TRUE(std::filesystem::exists(dir.path() + "/snapshot.csv"));

  // The healed checkpoint preserved everything: crash + recover matches.
  const std::multiset<std::string> before =
      store_rows(service, "compactbackoff_before");
  service.simulate_crash();
  Matchd restarted(config);
  restarted.set_ladder(test_ladder());
  auto recovery = restarted.recover();
  ASSERT_TRUE(recovery.has_value()) << recovery.error();
  EXPECT_EQ(store_rows(restarted, "compactbackoff_after"), before);
}

TEST(MatchdWalTest, ThreadSpawnFaultAbortsStartupCleanly) {
  TempDir dir("spawn");
  util::FaultInjector injector(13);
  injector.arm(util::FaultSite::kThreadSpawn, {1.0, UINT32_MAX});
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.faults = &injector;
  config.workers = 4;
  EXPECT_THROW({ Matchd service(config); }, std::runtime_error);
  // A second attempt with the fault cleared must start normally in the
  // same directory (no half-open files or stale locks left behind).
  injector.arm(util::FaultSite::kThreadSpawn, {0.0, UINT32_MAX});
  Matchd service(config);
  service.set_ladder(test_ladder());
  EXPECT_TRUE(service.async_enabled());
  (void)drive_job(service, make_job(1));
}

TEST(MatchdWalTest, QueueAdmitFaultReadsAsBackpressure) {
  util::FaultInjector injector(17);
  injector.arm(util::FaultSite::kQueueAdmit, {1.0, UINT32_MAX});
  MatchdConfig config;
  config.durability.faults = &injector;
  config.workers = 1;
  Matchd service(config);
  service.set_ladder(test_ladder());
  EXPECT_EQ(service.submit_async(make_job(1), nullptr), PushResult::kFull);
  EXPECT_EQ(service.stats().async_rejected_full, 1u);
  // The estimator adapter absorbs the rejection via its sync fallback.
  MatchdEstimator adapter(service);
  core::SystemState state;
  EXPECT_GT(adapter.estimate(make_job(1), state), 0.0);
}

TEST(MatchdWalTest, QueueAdmitFaultRefusesEachStagedRequestAlone) {
  // One staged batch, half its admission checks faulted: each request's
  // outcome is the injector's decision for it, in arrival order, and a
  // faulted request does not take the ones behind it down with it.
  constexpr std::uint64_t kSeed = 23;
  constexpr std::size_t kBatch = 64;
  const util::FaultSpec half{0.5, UINT32_MAX};
  util::FaultInjector injector(kSeed);
  injector.arm(util::FaultSite::kQueueAdmit, half);
  MatchdConfig config;
  config.durability.faults = &injector;
  config.workers = 1;
  Matchd service(config);
  service.set_ladder(test_ladder());

  std::vector<Matchd::Request> batch(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) batch[i].job = make_job(i + 1);
  std::vector<PushResult> results(kBatch);
  const std::size_t admitted = service.admit(batch, results);
  service.drain();

  util::FaultInjector oracle(kSeed);
  oracle.arm(util::FaultSite::kQueueAdmit, half);
  std::size_t refused = 0;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const bool faulted = oracle.should_fail(util::FaultSite::kQueueAdmit);
    refused += faulted ? 1 : 0;
    EXPECT_EQ(results[i], faulted ? PushResult::kFull : PushResult::kOk)
        << "request " << i;
  }
  ASSERT_GT(refused, 0u);
  ASSERT_LT(refused, kBatch);
  EXPECT_EQ(admitted, kBatch - refused);
  const MatchdStats stats = service.stats();
  EXPECT_EQ(stats.async_accepted, admitted);
  EXPECT_EQ(stats.async_rejected_full, refused);
  EXPECT_EQ(stats.submissions, admitted);
}

// --- concurrency hammers (TSan targets) --------------------------------------

TEST(MatchdWalTest, ConcurrentFeedbackAndCompactionHammer) {
  TempDir dir("hammer");
  util::FaultInjector injector(23);
  // Low rate + cap 2 against 10 retry attempts: give-up probability is
  // negligible even with cross-thread interleavings resetting the cap.
  injector.arm(util::FaultSite::kWalAppend, {0.02, 2});
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.faults = &injector;
  config.durability.retry.max_attempts = 10;
  config.durability.retry.initial_backoff = std::chrono::microseconds(1);
  config.store.shards = 8;

  std::multiset<std::string> before;
  {
    Matchd service(config);
    service.set_ladder(test_ladder());
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kOpsPerThread = 1500;
    std::atomic<bool> stop{false};
    std::thread compactor([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)service.checkpoint();
        std::this_thread::yield();
      }
    });
    {
      std::vector<std::thread> drivers;
      for (std::size_t t = 0; t < kThreads; ++t) {
        drivers.emplace_back([&, t] {
          for (std::size_t i = 0; i < kOpsPerThread; ++i) {
            drive_job(service, make_job(t * kOpsPerThread + i));
          }
        });
      }
      for (auto& d : drivers) d.join();
    }
    stop.store(true, std::memory_order_relaxed);
    compactor.join();

    EXPECT_EQ(service.invariant_violations(), 0u);
    ASSERT_EQ(service.stats().wal_giveups, 0u);
    EXPECT_FALSE(service.degraded());
    before = store_rows(service, "hammer_before");
    service.simulate_crash();
  }

  // Every committed mutation was logged under its shard lock, so replay
  // over the last snapshot reconstructs the exact concurrent state.
  Matchd restarted(config);
  restarted.set_ladder(test_ladder());
  auto recovery = restarted.recover();
  ASSERT_TRUE(recovery.has_value()) << recovery.error();
  EXPECT_EQ(store_rows(restarted, "hammer_after"), before);
}

// --- batched admission durability --------------------------------------------

TEST(MatchdWalTest, BackoffSleepsDoNotHoldShardLock) {
  // Regression: wal_append_locked used to run its RetryPolicy backoff
  // sleeps INSIDE the estimator-store shard lock, so one key's disk
  // trouble stalled every reader of the shard for the full retry budget.
  // The fix buffers frames under the lock and retries the commit after
  // release; anything needing the shard lock (here: stats(), which sizes
  // the store) must stay fast while a writer is mid-backoff.
  TempDir dir("backoff_lock");
  util::FaultInjector injector(11);
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.faults = &injector;
  config.durability.retry.max_attempts = 3;
  config.durability.retry.initial_backoff = std::chrono::microseconds(150'000);
  config.durability.retry.max_backoff = std::chrono::microseconds(150'000);
  config.durability.retry.multiplier = 1.0;
  config.durability.retry.jitter = 0.0;
  config.store.shards = 1;  // the one stripe everything contends on
  Matchd service(config);
  service.set_ladder(test_ladder());
  drive_job(service, make_job(1));  // healthy warm-up

  // Every flush fails: the submit below spends ~300ms in backoff sleeps.
  injector.arm(util::FaultSite::kWalAppend, {1.0, UINT32_MAX});
  std::thread writer([&service] { (void)service.submit(make_job(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto start = std::chrono::steady_clock::now();
  (void)service.stats();
  const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  writer.join();

  EXPECT_LT(stalled.count(), 150)
      << "stats() blocked behind a WAL retry backoff: the shard lock is "
         "being held across the sleeps again";
  EXPECT_TRUE(service.degraded());
  EXPECT_GT(service.stats().wal_giveups, 0u);
}

TEST(MatchdWalTest, BatchCommitPointMakesEveryBatchDurable) {
  // Counter-experiment to CrashDropsWhatFlushCadenceHadNotWritten: the
  // same never-flush cadence, but ops go through the BATCHED worker path,
  // whose per-batch forced flush+fsync is its own commit point. A crash
  // after drain() must lose nothing.
  TempDir dir("batchcommit");
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.wal_flush_every = 1U << 20;
  config.workers = 2;
  config.queue_capacity = 2048;
  config.batch_max = 16;
  constexpr std::uint64_t kJobs = 200;
  {
    Matchd service(config);
    service.set_ladder(test_ladder());
    std::atomic<std::uint64_t> resolved{0};
    for (std::uint64_t n = 0; n < kJobs; ++n) {
      const trace::JobRecord job = make_job(n);
      ASSERT_EQ(service.submit_async(
                    job,
                    [&service, &resolved, job](const MatchDecision& d) {
                      core::Feedback fb;
                      fb.granted_mib = d.granted_mib;
                      fb.success = job.used_mem_mib <= d.granted_mib;
                      fb.used_mib = job.used_mem_mib;
                      ASSERT_EQ(service.feedback_async(
                                    JobOutcome{job, fb},
                                    [&resolved] { resolved.fetch_add(1); }),
                                PushResult::kOk);
                    }),
                PushResult::kOk);
    }
    while (resolved.load() < kJobs) service.drain();
    service.simulate_crash();
  }
  std::size_t records = 0;
  auto replay = Wal::replay_typed(
      dir.path(),
      [&](WalRecordType, std::uint64_t, const double*, std::size_t) {
        ++records;
      });
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(records, 2 * kJobs);  // every batched submit + feedback
}

TEST(MatchdWalTest, FailedBatchCommitKeepsFramesBufferedInOrder) {
  // When the per-batch flush fails past retries the service degrades, but
  // the already-encoded frames stay in the shard buffer IN ORDER: once
  // the log heals, the next commit writes them before anything newer, so
  // recovery still reconstructs the exact live state.
  TempDir dir("batchfail");
  util::FaultInjector injector(29);
  MatchdConfig config;
  config.durability.wal_dir = dir.path();
  config.durability.faults = &injector;
  config.durability.retry.max_attempts = 2;
  config.durability.retry.initial_backoff = std::chrono::microseconds(1);
  config.store.shards = 1;
  config.workers = 2;
  config.batch_max = 8;

  std::multiset<std::string> before;
  {
    Matchd service(config);
    service.set_ladder(test_ladder());
    MatchdEstimator adapter(service);
    const auto drive_async = [&](std::uint64_t n) {
      const trace::JobRecord job = make_job(n);
      const MiB granted = adapter.estimate(job, core::SystemState{});
      core::Feedback fb;
      fb.granted_mib = granted;
      fb.success = job.used_mem_mib <= granted;
      fb.used_mib = job.used_mem_mib;
      adapter.feedback(job, fb);
    };
    for (std::uint64_t n = 0; n < 20; ++n) drive_async(n);

    // This op's transition commits to the store, but its batch flush
    // fails: frame buffered, service degraded.
    injector.arm(util::FaultSite::kWalAppend, {1.0, UINT32_MAX});
    drive_async(100);
    service.drain();
    EXPECT_TRUE(service.degraded());
    EXPECT_GT(service.stats().wal_giveups, 0u);

    // Heal: the heartbeat probe restores service and the buffered frames
    // ride out with the next successful commit.
    injector.arm(util::FaultSite::kWalAppend, {0.0, UINT32_MAX});
    for (std::uint64_t n = 200; n < 210; ++n) drive_async(n);
    service.drain();
    EXPECT_FALSE(service.degraded());

    before = store_rows(service, "batchfail_before");
    service.simulate_crash();
  }

  Matchd restarted(config);
  restarted.set_ladder(test_ladder());
  auto recovery = restarted.recover();
  ASSERT_TRUE(recovery.has_value()) << recovery.error();
  EXPECT_EQ(store_rows(restarted, "batchfail_after"), before);
}

}  // namespace
}  // namespace resmatch::svc
