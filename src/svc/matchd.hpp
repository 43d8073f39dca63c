// matchd — the online matchmaker service façade.
//
// Packages the paper's estimator as a concurrent, long-running in-process
// service in front of the scheduler (the deployment shape of Rattihalli
// et al.'s two-stage Mesos front-end and Le & Liu's Flex):
//
//   submit(JobRecord)  -> MatchDecision   rewrite the request (Algorithm 1)
//   feedback(Outcome)  ->                 learn from the attempt's result
//
// State lives in a shard-striped EstimatorStore of core::SaGroupState, so
// any number of client threads may call the synchronous API concurrently;
// per-group transitions serialize on the group's shard lock only. An
// optional worker pool drains a bounded admission queue for callers that
// want asynchronous submission with backpressure (try_* calls reject with
// a reason when the queue is full rather than blocking producers).
//
// Determinism contract: driven serially (one call at a time — e.g. by the
// discrete-event simulator through MatchdEstimator), matchd's decisions
// are byte-identical to SuccessiveApproximationEstimator's, because both
// run the same core::SaGroupState transitions and group jobs with the
// same similarity key. Verified by sim::serve_replay. Under concurrent
// drive, ordering is not reproducible, but every per-group trajectory
// still satisfies Algorithm 1's invariants (alpha >= 1, estimate bounded
// by the proven capacity) — asserted by SaGroupState::invariants_hold in
// the svc tests.
//
// Worker pool batching: each worker drains up to `batch_max` requests per
// pop (waiting `batch_linger` for stragglers) and runs them through the
// request path the synchronous API runs on one request: degraded
// probes; then the transitions, sorted by store shard with every
// shard run applied under ONE lock acquisition and its WAL frames
// buffered in order; then one commit per distinct WAL file after the
// locks are released; then the counters. The callers differ only in the
// commit: a worker batch forces write+fsync (its commit point), a
// synchronous call follows the WAL's flush/fsync cadence. batch_max=1
// reproduces per-request commit points through the same code path.
//
// Crash safety (opt-in via MatchdConfig::durability): every committed
// group transition is framed into a per-shard write-ahead log (wal.hpp)
// buffer under the same shard lock that serialized the transition — frame
// order is fixed at buffering time — and the I/O (with its capped
// exponential backoff retries) runs after the lock is released, so a sick
// disk never stalls other keys on the shard. Past retry exhaustion the
// service enters DEGRADED mode — submissions get pass-through grants (the rounded
// raw request, never a lowered one), feedback/cancel are dropped, and each
// degraded operation sends one heartbeat probe that restores normal
// service the moment the log accepts writes again. recover() rebuilds the
// store from snapshot + WAL replay; checkpoint() compacts the log into a
// fresh snapshot. See OPERATIONS.md for the operator-facing contract.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/factory.hpp"
#include "core/group_state.hpp"
#include "core/similarity.hpp"
#include "obs/metrics.hpp"
#include "svc/estimator_store.hpp"
#include "svc/mpmc_queue.hpp"
#include "svc/thread_pool.hpp"
#include "svc/wal.hpp"
#include "trace/job_record.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"

namespace resmatch::svc {

/// Crash-safety knobs. With `wal_dir` empty (the default) no WAL exists
/// and every mutation pays exactly one null-pointer check over the
/// previous behavior. With a directory set, every committed group
/// transition is appended to a per-shard write-ahead log under the same
/// shard lock that serialized the transition, so recovery (snapshot load
/// + WAL replay) reconstructs the store byte-identically.
struct DurabilityConfig {
  /// WAL + compaction-snapshot directory. Empty = durability off.
  std::string wal_dir;
  /// Records buffered in user space before write(2). 1 = every append
  /// survives a process crash.
  std::size_t wal_flush_every = 1;
  /// Flushed records allowed in the page cache before fsync(2). 1 = every
  /// append survives power loss.
  std::size_t wal_fsync_every = 64;
  /// Compact (rotate generations + snapshot + delete old logs)
  /// automatically after this many appends. 0 = only on checkpoint().
  std::uint64_t compact_every = 0;
  /// Number of WAL log files. Deliberately decoupled from the store's
  /// shard count: a batch commits each *WAL* shard it touched exactly
  /// once, so fewer files mean fewer forced fsyncs per batch (a 64-entry
  /// batch spread over 64 store shards pays at most `wal_shards` fsyncs,
  /// not 64). More files reduce append-mutex contention on the
  /// synchronous path. Keys map deterministically to files for any
  /// store/WAL shard-count combination, so recovery and replay are
  /// unaffected by this knob. Clamped to >= 1.
  std::size_t wal_shards = 8;
  /// Backoff schedule for WAL appends and snapshot I/O. The consecutive-
  /// failure cap of an armed FaultInjector must stay below max_attempts
  /// for injected faults to be recoverable-by-retry.
  util::RetryPolicy retry{.max_attempts = 6,
                          .initial_backoff = std::chrono::microseconds(50),
                          .max_backoff = std::chrono::microseconds(5000)};
  /// Base seed for deterministic backoff jitter. A WAL commit mixes in
  /// the group key of the first request that buffered into its file (the
  /// request's own key for a synchronous call), so concurrent callers
  /// retrying one file back off on different schedules. The seed changes
  /// sleep lengths only, never an outcome.
  std::uint64_t retry_seed = 0x5EEDBA5Eu;
  /// Deterministic fault-injection hook, threaded into the store and the
  /// WAL as well. Not owned; null = disabled (zero cost).
  util::FaultInjector* faults = nullptr;
};

struct MatchdConfig {
  double alpha = 2.0;  ///< Algorithm 1 initial learning rate (> 1)
  double beta = 0.0;   ///< failure damping of alpha, in [0, 1)
  StoreConfig store;   ///< shard striping and the entry bound
  /// Similarity key; null = the paper's (user, app, requested memory).
  core::SimilarityKeyFn key_fn;
  /// Admission queue bound; pushes beyond it are rejected (backpressure).
  std::size_t queue_capacity = 1024;
  /// Worker threads draining the admission queue. 0 = synchronous-only
  /// service (the async API then rejects with kClosed).
  std::size_t workers = 0;
  /// Max requests one worker drains per batch. A batch takes each store
  /// shard's lock once and pays one WAL write+fsync per distinct WAL
  /// file touched (at most DurabilityConfig::wal_shards), so larger
  /// batches amortize both costs. 1 = per-request commit points (the
  /// unbatched behavior, through the same code path).
  std::size_t batch_max = 32;
  /// How long a partially filled batch waits for more arrivals before
  /// processing. 0 (default) = never wait; latency traded for batch size.
  std::chrono::microseconds batch_linger{0};
  /// Observability registry (not owned; must outlive the service). When
  /// set, the service exports latency histograms, queue-wait time,
  /// backpressure counters, and store hit/eviction/occupancy series under
  /// the resmatch_matchd_* / resmatch_store_* names (see README
  /// "Observability"). Null = fully uninstrumented (the default; the hot
  /// path then pays one branch per operation).
  obs::Registry* metrics = nullptr;
  /// Latency histograms sample 1 in N operations per thread (rounded to a
  /// power of two) so two steady_clock reads are not added to every
  /// submit. Counters are always exact. 0 or 1 = time every operation.
  std::uint32_t metrics_sample_period = 64;
  /// Crash safety: WAL, retry/backoff, degraded mode, fault injection.
  DurabilityConfig durability;
  /// Learned-model estimator attached to the service, by factory name
  /// ("quantile", "ensemble", ...). Empty (default) = the group-store
  /// Algorithm 1 path, exactly as before. When set, the service builds
  /// its own instance (so crash/recovery twins built from one config
  /// never share a model), routes submit/preview/feedback/cancel through
  /// it under one model mutex, and persists the model's full serialized
  /// state on every mutation: a kModelState WAL frame (log shard 0, last
  /// record wins) plus a `model` row in compaction snapshots, so
  /// recover() restores the estimator byte-identically. Model state
  /// frames grow with the model (the ensemble's with its group count);
  /// set DurabilityConfig::compact_every on long-running services so the
  /// log is folded into snapshots. Degraded mode behaves as for the store
  /// path: pass-through grants, dropped feedback.
  std::string model_estimator;
  /// Options bag for the model estimator (alpha/beta, tau, thresholds).
  core::EstimatorOptions model_options;
};

/// The service's answer to one submission.
struct MatchDecision {
  MiB granted_mib = 0.0;        ///< effective request (= granted capacity)
  bool lowered = false;         ///< grant below the rounded raw request
  std::uint64_t group_key = 0;  ///< similarity key the job mapped to
};

/// Completed-attempt report. `job` must be the same record (or at least
/// the same similarity key and request) that was submitted.
struct JobOutcome {
  trace::JobRecord job;
  core::Feedback feedback;
};

/// Aggregated service counters. Per-shard rows align with the store's
/// striping (index = store shard index).
struct MatchdShardStats {
  std::uint64_t submissions = 0;
  std::uint64_t rewrites = 0;  ///< submissions granted below the request
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t cancels = 0;
};

struct MatchdStats {
  std::uint64_t submissions = 0;
  std::uint64_t rewrites = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t cancels = 0;
  std::uint64_t async_accepted = 0;
  std::uint64_t async_rejected_full = 0;  ///< backpressure rejections
  std::uint64_t batch_drains = 0;         ///< bulk drains by the worker pool
  std::uint64_t batch_wal_commits = 0;    ///< forced batch commit points
  std::size_t queue_depth = 0;
  std::size_t groups = 0;
  std::uint64_t evictions = 0;
  std::vector<MatchdShardStats> shards;
  StoreStats store;
  // Durability (all zero when the WAL is off).
  bool degraded = false;          ///< currently serving pass-through
  std::uint64_t degraded_ops = 0; ///< ops served/dropped while degraded
  std::uint64_t wal_retries = 0;  ///< WAL/snapshot attempts beyond the first
  std::uint64_t wal_giveups = 0;  ///< appends abandoned at retry exhaustion
  std::uint64_t compactions = 0;  ///< completed checkpoint cycles
  WalStats wal;
  /// Learned-model mutations applied (0 without a model attached).
  std::uint64_t model_updates = 0;
};

/// What recover() reconstructed.
struct RecoveryStats {
  std::size_t snapshot_rows = 0;     ///< groups restored from snapshot.csv
  std::uint64_t wal_records = 0;     ///< upserts replayed over the snapshot
  std::uint64_t wal_files = 0;       ///< log files visited
  std::uint64_t torn_files = 0;      ///< logs cut short at a torn tail
  std::uint64_t invalid_records = 0; ///< records whose payload failed decode
  std::uint64_t model_records = 0;   ///< model-state frames seen (last wins)
};

class Matchd {
 public:
  explicit Matchd(MatchdConfig config = {});
  ~Matchd();

  Matchd(const Matchd&) = delete;
  Matchd& operator=(const Matchd&) = delete;

  /// Install the target cluster's capacity ladder. Must happen before
  /// traffic; the ladder is immutable while serving.
  void set_ladder(core::CapacityLadder ladder);
  [[nodiscard]] const core::CapacityLadder& ladder() const noexcept {
    return ladder_;
  }

  // --- synchronous API (thread-safe, any number of callers) ---------------

  /// Rewrite one submission. Commits group state (claims the probe slot);
  /// pair with feedback() or cancel().
  [[nodiscard]] MatchDecision submit(const trace::JobRecord& job);

  /// What submit() would grant right now, committing nothing.
  [[nodiscard]] MiB preview(const trace::JobRecord& job) const;

  /// Undo the most recent submit() for `job` when the attempt never ran.
  void cancel(const trace::JobRecord& job, MiB granted);

  /// Report an attempt's outcome.
  void feedback(const JobOutcome& outcome);
  void feedback(const trace::JobRecord& job, const core::Feedback& fb) {
    feedback(JobOutcome{job, fb});
  }

  // --- asynchronous admission (workers > 0) -------------------------------

  using SubmitCallback = std::function<void(const MatchDecision&)>;
  using DoneCallback = std::function<void()>;

  /// Enqueue a submission; `on_decision` runs on a worker thread. kFull
  /// means backpressure (queue at capacity) — the job was NOT admitted.
  [[nodiscard]] PushResult submit_async(const trace::JobRecord& job,
                                        SubmitCallback on_decision);

  [[nodiscard]] PushResult feedback_async(const JobOutcome& outcome,
                                          DoneCallback on_done = nullptr);

  [[nodiscard]] PushResult cancel_async(const trace::JobRecord& job,
                                        MiB granted,
                                        DoneCallback on_done = nullptr);

  /// Block until every admitted async request has been fully processed.
  void drain();

  // --- introspection / persistence ----------------------------------------

  [[nodiscard]] MatchdStats stats() const;

  /// Number of groups whose state violates Algorithm 1's invariants
  /// (must be 0 under any interleaving; the hammer test asserts it).
  [[nodiscard]] std::size_t invariant_violations() const;

  /// Snapshot the estimator store for a warm restart (versioned CSV).
  [[nodiscard]] bool save_store(const std::string& path) const;
  /// Restore a snapshot; returns rows restored or a parse error. Call
  /// before serving traffic.
  [[nodiscard]] util::Expected<std::size_t> restore_store(
      const std::string& path);

  [[nodiscard]] const MatchdConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool async_enabled() const noexcept {
    return pool_ != nullptr;
  }

  /// Whether a learned-model estimator is attached (config.model_estimator).
  [[nodiscard]] bool model_enabled() const noexcept {
    return model_ != nullptr;
  }
  /// Introspection snapshot of the attached model (nullopt without one, or
  /// when the model exposes no stats).
  [[nodiscard]] std::optional<core::ModelStats> model_stats() const;
  /// The attached model's serialized state (empty without one) — what the
  /// next kModelState frame / snapshot model row would carry.
  [[nodiscard]] std::vector<double> model_state() const;

  // --- durability (active when config.durability.wal_dir is set) ----------

  [[nodiscard]] bool wal_enabled() const noexcept { return wal_ != nullptr; }

  /// True while the service runs pass-through because the WAL refused
  /// writes past retry exhaustion. Cleared by the first heartbeat probe
  /// that commits (one probe per operation while degraded).
  [[nodiscard]] bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }

  enum class RecoverMode {
    kSnapshotAndWal,  ///< normal recovery: snapshot (if any) + WAL replay
    kWalOnly,         ///< skip a corrupt snapshot; replay the full log
  };

  /// Rebuild store state from the WAL directory. Call before serving
  /// traffic. A missing snapshot is fine (fresh start / never compacted);
  /// a corrupt one is an error — retry with kWalOnly, which reconstructs
  /// everything since the last completed compaction.
  [[nodiscard]] util::Expected<RecoveryStats> recover(
      RecoverMode mode = RecoverMode::kSnapshotAndWal);

  /// Compact: rotate all WAL shards to the next generation, snapshot the
  /// store, then delete the superseded generations. On failure old logs
  /// are kept — recovery replays more records but loses nothing.
  [[nodiscard]] bool checkpoint();

  /// Push every buffered WAL record down to disk (write + fsync).
  [[nodiscard]] bool flush_wal();

  /// Where checkpoint() publishes the compaction snapshot.
  [[nodiscard]] std::string snapshot_path() const;

  /// TEST HOOK — stop the workers, then drop the WAL's buffers and close
  /// its files without flushing, as a process crash would. Optionally
  /// leaves a torn half-frame at one shard's tail (a mid-write power cut).
  void simulate_crash(bool leave_torn_tail = false);

 private:
  struct Request {
    enum class Kind { kSubmit, kFeedback, kCancel } kind = Kind::kSubmit;
    trace::JobRecord job;
    core::Feedback fb;
    MiB granted = 0.0;
    SubmitCallback on_decision;
    DoneCallback on_done;
    /// Admission timestamp for the queue-wait histogram; only stamped
    /// when the service is instrumented.
    std::chrono::steady_clock::time_point admitted{};
  };

  /// One request as apply() sees it: inputs borrowed from the caller (a
  /// synchronous call's arguments or a drained Request's fields) and the
  /// result slots apply() fills in. A synchronous call builds one on its
  /// stack, so it copies no JobRecord and allocates nothing.
  struct Op {
    Request::Kind kind;
    const trace::JobRecord* job;
    const core::Feedback* fb = nullptr;  ///< kFeedback only
    MiB granted = 0.0;                   ///< kCancel only
    std::uint64_t key = 0;
    std::size_t shard = 0;      ///< store shard of `key`
    MatchDecision decision{};   ///< kSubmit's answer
    bool pass_through = false;  ///< served degraded; no state touched
    bool applied = false;       ///< transition ran (a cancel found its group)
    bool framed = false;        ///< its WAL frame was buffered
    bool success = false;       ///< kFeedback's outcome
  };

  /// The request path of both callers: degraded probes, the transitions
  /// (model: arrival order under model_mutex_; store: stable shard sort,
  /// one lock hold per shard run), each WAL frame buffered under the lock
  /// that ordered it, then wal_commit(ops, force_commit), then the
  /// counters. A worker batch forces its commit; a synchronous call does
  /// not.
  void apply(std::span<Op> ops, bool force_commit);
  /// A synchronous call: apply() on one request, timed into `latency`.
  void apply_sync(Op& op, obs::Histogram* latency);
  void worker_main(std::size_t worker_index);
  [[nodiscard]] PushResult admit(Request&& request);

  void register_metrics();
  void unregister_metrics();

  /// Frame the group's post-transition state into the WAL's user-space
  /// buffer — no I/O, no sleeping. MUST be called from inside the store's
  /// with_group / modify_if_present lambda: the shard lock is what orders
  /// records of the same key in the log, and buffering fixes that order
  /// before the lock is released. Returns false only after a crash.
  [[nodiscard]] bool wal_buffer_locked(std::uint64_t key,
                                       const core::SaGroupState& g);
  /// Frame the model's full post-mutation state into the WAL buffer (log
  /// shard kModelWalShard) — no I/O. MUST be called with model_mutex_
  /// held: the mutex is what orders model frames in the log.
  [[nodiscard]] bool wal_buffer_model_locked();
  /// apply()'s commit phase: one commit per distinct WAL file the ops
  /// framed into, retried with backoff outside every lock; degrades the
  /// service at retry exhaustion. `force` (a worker batch) writes and
  /// fsyncs; otherwise (a synchronous call) the WAL's cadence applies.
  void wal_commit(std::span<const Op> ops, bool force);
  void enter_degraded();
  [[nodiscard]] bool try_exit_degraded(std::uint64_t key);
  /// Opportunistic auto-compaction once compact_every appends accumulate;
  /// skips silently if another thread is already compacting. Called
  /// outside any shard lock.
  void maybe_compact();
  [[nodiscard]] bool checkpoint_locked();

  /// Per-thread 1-in-N sampling decision for the latency histograms.
  [[nodiscard]] bool latency_sampled() const noexcept {
    if (sample_mask_ == 0) return true;
    thread_local std::uint32_t tick = 0;
    return (tick++ & sample_mask_) == 0;
  }

  /// All model-state WAL frames go to one log shard so the log carries a
  /// single total order for the model (replay applies the last frame).
  static constexpr std::size_t kModelWalShard = 0;

  MatchdConfig config_;
  core::CapacityLadder ladder_;
  core::SimilarityKeyFn key_fn_;
  EstimatorStore<core::SaGroupState> store_;

  /// Learned-model estimator (null = group-store path). All access —
  /// decisions, training, serialization, metrics reads — serializes on
  /// model_mutex_; the model is global state, unlike the shard-striped
  /// group store, so a model-backed service trades store parallelism for
  /// cross-group learning.
  std::unique_ptr<core::Estimator> model_;
  mutable std::mutex model_mutex_;
  std::atomic<std::uint64_t> model_updates_{0};

  /// Per-shard service counters, aligned with the store's striping and
  /// padded so concurrent submitters on different shards never false-share.
  struct alignas(64) ShardCounters {
    std::atomic<std::uint64_t> submissions{0};
    std::atomic<std::uint64_t> rewrites{0};
    std::atomic<std::uint64_t> successes{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> cancels{0};
  };
  std::vector<ShardCounters> counters_;

  std::atomic<std::uint64_t> async_accepted_{0};
  std::atomic<std::uint64_t> async_rejected_full_{0};
  std::atomic<std::uint64_t> batch_drains_{0};
  std::atomic<std::uint64_t> batch_wal_commits_{0};

  /// Latency instruments (owned by config_.metrics; null when
  /// uninstrumented). Counters are exported as pull providers over the
  /// existing per-shard atomics, so instrumentation adds nothing to the
  /// counting hot path.
  obs::Histogram* submit_hist_ = nullptr;
  obs::Histogram* feedback_hist_ = nullptr;
  obs::Histogram* cancel_hist_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  std::uint32_t sample_mask_ = 0;
  /// (name, labels) of every provider registered against the registry,
  /// removed in the destructor so providers never outlive their captures.
  std::vector<std::pair<std::string, obs::Labels>> provider_keys_;

  std::unique_ptr<BoundedMpmcQueue<Request>> queue_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<std::size_t> in_flight_{0};
  std::mutex drain_mutex_;
  std::condition_variable drained_;

  // --- durability ----------------------------------------------------------
  std::unique_ptr<Wal> wal_;
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> degraded_ops_{0};
  std::atomic<std::uint64_t> wal_retries_{0};
  std::atomic<std::uint64_t> wal_giveups_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> appends_since_compact_{0};
  /// Serializes checkpoint cycles; never held together with a shard lock.
  std::mutex compact_mutex_;
  /// True after a checkpoint rotated the log but failed to snapshot
  /// (guarded by compact_mutex_). The next checkpoint retries the
  /// snapshot without rotating again: the earlier rotation still covers
  /// every older generation, so repeating it would only pile up a new
  /// generation of shard files per failed attempt.
  bool snapshot_pending_ = false;
  /// Guards degraded_since_ (touched only on mode transitions).
  std::mutex degraded_mutex_;
  std::chrono::steady_clock::time_point degraded_since_{};
  obs::Histogram* recovery_hist_ = nullptr;
};

/// core::Estimator adapter: lets the discrete-event simulator (or any
/// offline driver) stand a Matchd instance where an estimator is expected.
/// When the service runs workers, every call round-trips through the
/// admission queue and waits for its result, so a serial driver exercises
/// the full pipeline and still observes deterministic decisions.
class MatchdEstimator final : public core::Estimator {
 public:
  /// `service` is not owned and must outlive the adapter.
  explicit MatchdEstimator(Matchd& service) : service_(&service) {}

  /// "matchd[successive-approximation]" for the group-store path,
  /// "matchd[<model>]" when the service carries a learned model.
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] MiB estimate(const trace::JobRecord& job,
                             const core::SystemState& state) override;

  [[nodiscard]] MiB preview(const trace::JobRecord& job,
                            const core::SystemState& state) const override;

  void cancel(const trace::JobRecord& job, MiB granted) override;

  void feedback(const trace::JobRecord& job,
                const core::Feedback& fb) override;

  void set_ladder(core::CapacityLadder ladder) override;

 private:
  Matchd* service_;
};

}  // namespace resmatch::svc
