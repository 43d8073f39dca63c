// Write-ahead log and compaction snapshot of the estimator store.
//
// Every committed mutation of a similarity group (submit/commit, feedback,
// cancel) appends the group's full post-transition state as one CRC-framed
// record to an append-only log file. Recovery is snapshot load + replay
// of every log generation in order: records are whole-state upserts, so
// replay is idempotent and the last record per key wins — a crash between
// snapshots loses zero flushed feedback.
//
// File layout under the WAL directory:
//
//   snapshot.csv            compaction snapshot (write_snapshot); the name
//                           predates the format, which is WAL frames
//   wal-<gen>-<shard>.log   append-only record log, one per WAL shard
//
// Generations: compaction rotates every shard to generation g+1 *before*
// the snapshot is taken, so every record in generations <= g is already
// reflected in the snapshot and those files can be deleted once the
// snapshot is durably published. If the snapshot fails, old generations
// are kept and recovery simply replays more records — compaction failure
// costs disk space, never data.
//
// Frame format (host-endian; the log is a local durability artifact, not
// a wire format):
//
//   u32 payload_len | u32 crc32(payload) | payload
//   payload = u8 type | u64 key | payload_len-9 bytes of raw f64 fields
//
// A log file is the magic "RSMWAL01" followed by frames. A snapshot is the
// magic "RSMSNAP1", one kUpsert frame per group (each store shard's groups
// from least to most recently used), at most one kModelState frame, and a
// kSnapshotEnd frame whose key is the number of frames before it. Both are
// read by one frame loop; a frame's length is bounded by the bytes left in
// its file, so a garbage length never becomes a huge allocation.
//
// A torn log tail (crash mid-append) fails the length or CRC check and
// replay stops at the last good record of that file. A snapshot has no
// torn tail: it is written to a temp file, fsynced and renamed into
// place, so any bad frame, a missing end frame or a count mismatch fails
// the load. Failed writes (injected or real) are repaired by truncating
// the log back to the last durable offset, so a retried append never
// leaves a torn frame mid-log. A failed fsync is reported as an append
// failure too, but the record is already in the file — a retry may
// duplicate it, which replay's last-wins upsert semantics absorb.
//
// Durability policy: `flush_every` buffers that many records in user
// space before write(2); `fsync_every` bounds how many flushed records
// may sit in the page cache before fsync(2). flush_every=1 (default)
// makes every append survive a process crash; fsync_every=1 makes every
// append survive power loss. The directory is fsynced after a
// generation's files are created and after a snapshot is renamed, so no
// acknowledged record sits in a file a power cut can unlink.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/expected.hpp"
#include "util/fault.hpp"

namespace resmatch::svc {

struct WalConfig {
  std::string dir;
  std::size_t shards = 16;
  /// Records buffered in user space before write(2). 1 = write-through.
  std::size_t flush_every = 1;
  /// Flushed records allowed in the page cache before fsync(2).
  std::size_t fsync_every = 64;
  /// Deterministic fault injection (null = disabled, zero-cost).
  util::FaultInjector* faults = nullptr;
};

/// Record types in the log.
enum class WalRecordType : std::uint8_t {
  kUpsert = 1,      ///< full post-transition state of one group
  kHeartbeat = 2,   ///< durability probe; carries no state
  kModelState = 3,  ///< full learned-model state (key unused, last wins)
  kSnapshotEnd = 4, ///< a snapshot's last frame; key = frames before it
};

/// One decoded record: type, key (0 for model state) and its fields.
/// Return false to refuse it (the read then fails at this record).
using RecordFn = std::function<bool(WalRecordType type, std::uint64_t key,
                                    const double* fields,
                                    std::size_t n_fields)>;
/// Where write_snapshot's caller emits the snapshot's records.
using RecordSink = std::function<void(WalRecordType type, std::uint64_t key,
                                      const double* fields,
                                      std::size_t n_fields)>;

struct WalStats {
  std::uint64_t appends = 0;          ///< records accepted (buffered or written)
  std::uint64_t append_failures = 0;  ///< appends refused after repair
  std::uint64_t bytes_written = 0;
  std::uint64_t fsyncs = 0;  ///< of log files, not of the directory
  std::uint64_t rotations = 0;
};

struct WalReplayStats {
  std::uint64_t files = 0;
  std::uint64_t records = 0;        ///< upserts delivered to the callback
  std::uint64_t heartbeats = 0;     ///< probe records skipped
  std::uint64_t model_records = 0;  ///< learned-model state records seen
  /// Files whose replay stopped before EOF on a bad frame. Expected on at
  /// most the newest generation after a crash (the torn tail); nonzero on
  /// an older generation means corruption, not a crash.
  std::uint64_t torn_files = 0;
};

class Wal {
 public:
  /// Open (creating the directory if needed) and start a fresh generation
  /// strictly above every generation already on disk — existing files are
  /// never appended to, only replayed or garbage-collected. Fails if a
  /// file cannot be created or the directory cannot be fsynced after.
  [[nodiscard]] static util::Expected<std::unique_ptr<Wal>> open(
      WalConfig config);

  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Append one group-state record. Returns false when the record could
  /// not be made durable (injected or real I/O failure). A refused write
  /// repairs the log back to its last durable offset; a failed fsync
  /// leaves the record in the file but unacknowledged. Either way the log
  /// stays parseable and the caller may simply retry (duplicates replay
  /// idempotently).
  [[nodiscard]] bool append(std::size_t shard, std::uint64_t key,
                            const double* fields, std::size_t n_fields);

  /// Append a no-op probe record — the degraded-mode health check: if a
  /// heartbeat commits, group appends will too.
  [[nodiscard]] bool append_heartbeat(std::size_t shard);

  /// Encode one record into the shard's user-space buffer WITHOUT any
  /// write(2)/fsync: no I/O, no retries, no sleeping — safe to call with
  /// a store shard lock held. Frame order in the log is fixed at
  /// buffering time, so the deferred commit() can retry I/O without ever
  /// reordering records. Returns false only after a (simulated) crash.
  [[nodiscard]] bool append_buffered(std::size_t shard, std::uint64_t key,
                                     const double* fields,
                                     std::size_t n_fields);

  /// Buffer one learned-model state record (same no-I/O contract as
  /// append_buffered). The record carries the estimator's full serialized
  /// state; replay delivers every one and the last record wins, so
  /// appending the complete state after each model mutation makes
  /// recovery exact without any delta encoding.
  [[nodiscard]] bool append_model_buffered(std::size_t shard,
                                           const double* fields,
                                           std::size_t n_fields);

  /// The deferred I/O half of append(): push buffered records down per
  /// the flush_every/fsync_every cadence. On failure the buffer is
  /// preserved in order, so the caller may simply retry commit() — with
  /// backoff, outside any store lock. (A failed cadence fsync leaves the
  /// records in the file; the retry re-attempts the fsync alone.)
  [[nodiscard]] bool commit(std::size_t shard);

  /// Flush buffered records and fsync one shard / all shards. The
  /// shutdown path calls flush_all(); a crash instead loses whatever the
  /// flush/fsync cadence had not yet pushed down.
  [[nodiscard]] bool flush(std::size_t shard);
  [[nodiscard]] bool flush_all();

  /// Rotate every shard to the next generation (flushing + fsyncing the
  /// old files). Compaction calls this immediately before snapshotting.
  /// All next-generation files are created, and the directory fsynced,
  /// before any live fd is replaced, so failure leaves every shard serving
  /// its current file and no partial generation on disk — rotate() is
  /// always safe to retry.
  [[nodiscard]] bool rotate();

  /// Delete every log file of generations below the current one. Call
  /// only after the post-rotation snapshot has been durably published.
  void remove_old_generations();

  [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const std::string& dir() const noexcept {
    return config_.dir;
  }
  [[nodiscard]] WalStats stats() const;

  /// TEST HOOK — simulate a process crash: drop all buffered records,
  /// optionally leave a torn half-frame at one shard's tail (as a real
  /// mid-write power cut would), and close the files without flushing.
  /// The object stays alive but refuses further appends.
  void simulate_crash(bool leave_torn_tail = false);

  /// Replay every generation in `dir` in (generation, shard) order,
  /// invoking `fn(type, key, fields, n_fields)` for each upsert and
  /// model-state record; heartbeats are counted and skipped. Replay of one
  /// file stops at the first bad frame (torn tail). A missing directory is
  /// not an error (nothing to replay).
  [[nodiscard]] static util::Expected<WalReplayStats> replay_typed(
      const std::string& dir,
      const std::function<void(WalRecordType type, std::uint64_t key,
                               const double* fields, std::size_t n_fields)>&
          fn);

 private:
  explicit Wal(WalConfig config) : config_(std::move(config)) {}

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    int fd = -1;
    std::vector<char> buf;           ///< encoded frames not yet written
    std::size_t pending_records = 0; ///< records in buf
    std::uint64_t durable_size = 0;  ///< bytes successfully written to fd
    std::uint64_t unsynced_records = 0;
  };

  [[nodiscard]] bool append_record(std::size_t shard, WalRecordType type,
                                   std::uint64_t key, const double* fields,
                                   std::size_t n_fields);
  /// Encode one frame into the shard buffer. Caller holds the shard
  /// mutex; returns the buffer size before the frame (the rollback mark).
  std::size_t encode_locked(Shard& s, WalRecordType type, std::uint64_t key,
                            const double* fields, std::size_t n_fields);

  /// How a flush attempt left the shard. The distinction matters to
  /// append_record's rollback: after kWriteFailed the buffer still holds
  /// every pending frame (the file was repaired back to its last durable
  /// offset), so dropping the newest frame is safe; after kFsyncFailed
  /// the frames already reached the file and the buffer was consumed —
  /// rolling it back would bury zero-filled garbage mid-log and underflow
  /// the pending count.
  enum class FlushOutcome {
    kOk,
    kWriteFailed,  ///< write(2) refused; buffer preserved, file repaired
    kFsyncFailed,  ///< records written but not durable; buffer consumed
  };

  /// Write buf to fd (repairing via ftruncate on failure) and fsync per
  /// policy. Caller holds the shard mutex.
  [[nodiscard]] FlushOutcome flush_locked(Shard& s);
  /// fsync the shard's file, clearing its unsynced count on success.
  /// Caller holds the shard mutex.
  [[nodiscard]] bool fsync_locked(Shard& s);
  /// O_CREAT|O_EXCL a log file and stamp the magic; returns the fd or -1
  /// (the file is unlinked again if the magic could not be written).
  [[nodiscard]] int create_log_file(const std::string& path);
  [[nodiscard]] bool open_shard_file(Shard& s, std::size_t index,
                                     std::uint64_t gen);
  [[nodiscard]] std::string file_path(std::uint64_t gen,
                                      std::size_t shard) const;

  WalConfig config_;
  std::vector<Shard> shards_;
  std::uint64_t gen_ = 1;
  bool crashed_ = false;

  // Counters outside the per-shard locks, readable by metrics providers.
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> append_failures_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> rotations_{0};
};

/// Publish a compaction snapshot at `path`: `fill(sink)` emits its records
/// (kUpsert per group, then at most one kModelState), and the file gets
/// the snapshot magic, those frames in emission order and the end frame.
/// The bytes are a pure function of the emitted records. Written to
/// `path + ".tmp"` in the same directory, fsynced, renamed over `path`,
/// then the directory is fsynced: a failure at any step leaves the
/// previous snapshot intact and returns false. Single-writer per path.
/// `faults` fires kStoreWrite before the temp file is opened and
/// kSnapshotRename in place of the rename.
[[nodiscard]] bool write_snapshot(
    const std::string& path, const std::function<void(const RecordSink&)>& fill,
    util::FaultInjector* faults = nullptr);

/// Read the snapshot at `path`, handing each group and model record to
/// `fn` in file order. Fails, naming the file, on a missing file, a bad
/// magic (a snapshot from before this format included), a bad frame, a
/// record `fn` refuses, anything after the end frame, a missing end frame
/// or a count mismatch. Returns the number of records delivered. `faults`
/// fires kStoreRead before the file is opened.
[[nodiscard]] util::Expected<std::uint64_t> read_snapshot(
    const std::string& path, const RecordFn& fn,
    util::FaultInjector* faults = nullptr);

}  // namespace resmatch::svc
