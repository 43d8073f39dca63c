#include "svc/matchd.hpp"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <future>
#include <stdexcept>

namespace resmatch::svc {

namespace {
/// Grants within this tolerance are the same capacity rung (the same
/// epsilon the simulator uses for its lowered-start accounting).
constexpr double kGrantEps = 1e-9;
}  // namespace

Matchd::Matchd(MatchdConfig config)
    : config_(std::move(config)),
      key_fn_(config_.key_fn ? config_.key_fn : core::default_similarity_key),
      store_(config_.store),
      counters_(store_.shard_count()) {
  try {
    if (!config_.model_estimator.empty()) {
      // Built by NAME so twins constructed from one config (reference /
      // crashed / recovered in sim::crash_replay) each own a fresh model.
      model_ =
          core::make_estimator(config_.model_estimator, config_.model_options);
    }
    if (!config_.durability.wal_dir.empty()) {
      WalConfig wc;
      wc.dir = config_.durability.wal_dir;
      wc.shards = std::max<std::size_t>(1, config_.durability.wal_shards);
      wc.flush_every = config_.durability.wal_flush_every;
      wc.fsync_every = config_.durability.wal_fsync_every;
      wc.faults = config_.durability.faults;
      auto wal = Wal::open(std::move(wc));
      if (!wal) {
        throw std::runtime_error("matchd: cannot open WAL: " + wal.error());
      }
      wal_ = std::move(wal.value());
    }
    register_metrics();
    if (config_.workers > 0) {
      queue_ = std::make_unique<BoundedMpmcQueue<Request>>(
          std::max<std::size_t>(1, config_.queue_capacity));
      util::FaultInjector* faults = config_.durability.faults;
      pool_ = std::make_unique<ThreadPool>(
          config_.workers, [this](std::size_t i) { worker_main(i); },
          // Spawn failure: release any already-running workers blocked
          // on pop_bulk() so the pool's recovery join can complete.
          [this] { queue_->close(); },
          faults ? std::function<void(std::size_t)>([faults](std::size_t) {
            if (faults->should_fail(util::FaultSite::kThreadSpawn)) {
              throw std::runtime_error("injected thread-spawn fault");
            }
          })
                 : std::function<void(std::size_t)>{});
    }
  } catch (...) {
    // The destructor will not run for a throwing constructor; drop any
    // registered providers so they cannot capture a dead service, and
    // push any WAL records the partial startup managed to append.
    if (queue_) queue_->close();
    if (pool_) pool_->join();
    if (wal_) (void)wal_->flush_all();
    unregister_metrics();
    throw;
  }
}

Matchd::~Matchd() {
  if (queue_) queue_->close();
  if (pool_) pool_->join();
  // Workers are joined, so nothing races the final flush: every record the
  // service accepted reaches disk before the log files close (the
  // shutdown-durability guarantee).
  if (wal_) (void)wal_->flush_all();
  unregister_metrics();
}

void Matchd::set_ladder(core::CapacityLadder ladder) {
  if (model_) {
    std::lock_guard<std::mutex> lock(model_mutex_);
    model_->set_ladder(ladder);
  }
  ladder_ = std::move(ladder);
}

MatchDecision Matchd::submit(const trace::JobRecord& job) {
  Op op{Request::Kind::kSubmit, &job};
  apply_sync(op, submit_hist_);
  return op.decision;
}

MiB Matchd::preview(const trace::JobRecord& job) const {
  if (model_) {
    // Previews serialize on the model mutex like every other model
    // operation.
    std::lock_guard<std::mutex> lock(model_mutex_);
    return model_->preview(job, core::SystemState{});
  }
  // A locked read: the copy is taken under the group's shard lock, so a
  // preview waits out any writer (or worker shard run) holding it.
  const auto state = store_.peek(key_fn_(job));
  if (!state) return ladder_.round_up(job.requested_mem_mib);
  return state->preview(ladder_);
}

void Matchd::cancel(const trace::JobRecord& job, MiB granted) {
  Op op{Request::Kind::kCancel, &job, nullptr, granted};
  apply_sync(op, cancel_hist_);
}

void Matchd::feedback(const JobOutcome& outcome) {
  Op op{Request::Kind::kFeedback, &outcome.job, &outcome.feedback};
  apply_sync(op, feedback_hist_);
}

void Matchd::apply_sync(Op& op, obs::Histogram* latency) {
  const bool timed = latency != nullptr && latency_sampled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  apply({&op, 1}, /*force_commit=*/false);
  if (timed) {
    latency->record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
}

void Matchd::apply(std::span<Op> ops, bool force_commit) {
  for (Op& op : ops) {
    op.key = key_fn_(*op.job);
    op.shard = store_.shard_of(op.key);
    op.decision.group_key = op.key;
  }

  // Degraded probes. Heartbeats do their own WAL I/O, so they run before
  // any lock is taken: one probe per request while degraded.
  if (wal_) {
    for (Op& op : ops) {
      if (degraded_.load(std::memory_order_relaxed) &&
          !try_exit_degraded(op.key)) {
        // Pass-through: a submit gets the rounded raw request; feedback
        // and cancel are dropped, so nothing is learned that the log could
        // not record (a dropped cancel's group re-syncs on its next
        // recorded transition).
        op.pass_through = true;
        op.decision.granted_mib = ladder_.round_up(op.job->requested_mem_mib);
        degraded_ops_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // Transitions. Each WAL frame is buffered (no I/O) under the lock that
  // ordered its transition, so frame order is fixed before the lock is
  // released: the commit below can retry and back off without reordering
  // the log or stalling the lock's other keys.
  if (model_) {
    // The learned model is one global object: apply in ARRIVAL order under
    // one mutex hold, since a shard sort would reorder its training
    // sequence. The mutex also orders the model frames in the log.
    std::lock_guard<std::mutex> lock(model_mutex_);
    for (Op& op : ops) {
      if (op.pass_through) continue;
      switch (op.kind) {
        case Request::Kind::kSubmit:
          op.decision.granted_mib =
              model_->estimate(*op.job, core::SystemState{});
          break;
        case Request::Kind::kFeedback:
          model_->feedback(*op.job, *op.fb);
          op.success = op.fb->success;
          break;
        case Request::Kind::kCancel:
          model_->cancel(*op.job, op.granted);
          break;
      }
      op.applied = true;
      if (wal_) op.framed = wal_buffer_model_locked();
    }
  } else {
    // Sort by store shard, stably, so same-key requests keep their arrival
    // order and every group's trajectory matches an unbatched run;
    // cross-key reordering commutes (distinct groups). stable_sort
    // allocates even for one element, so a single request skips it.
    Op* single = ops.data();
    Op* const* order = &single;
    std::vector<Op*> sorted;
    if (ops.size() > 1) {
      sorted.reserve(ops.size());
      for (Op& op : ops) sorted.push_back(&op);
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const Op* a, const Op* b) {
                         return a->shard < b->shard;
                       });
      order = sorted.data();
    }

    // One lock hold per shard run.
    for (std::size_t run_begin = 0; run_begin < ops.size();) {
      const std::size_t shard = order[run_begin]->shard;
      std::size_t run_end = run_begin;
      while (run_end < ops.size() && order[run_end]->shard == shard) {
        ++run_end;
      }
      store_.with_shard(shard, [&](auto& locked) {
        for (std::size_t j = run_begin; j < run_end; ++j) {
          Op& op = *order[j];
          if (op.pass_through) continue;
          const auto step = [&](core::SaGroupState& g) {
            switch (op.kind) {
              case Request::Kind::kSubmit:
                op.decision.granted_mib = g.commit(ladder_);
                break;
              case Request::Kind::kFeedback:
                op.success = g.apply_feedback(
                    *op.fb, op.job->requested_mem_mib, ladder_, config_.beta);
                break;
              case Request::Kind::kCancel:
                g.cancel(op.granted);
                break;
            }
            op.applied = true;
            if (wal_) op.framed = wal_buffer_locked(op.key, g);
          };
          if (op.kind == Request::Kind::kCancel) {
            // No group, no probe slot to release.
            locked.modify_if_present(op.key, step);
          } else {
            // Create-if-missing mirrors the offline estimator: feedback
            // for an evicted (or never-seen) group re-enters at the
            // request, then applies the outcome.
            locked.with_group(
                op.key,
                [&] {
                  return core::SaGroupState::fresh(op.job->requested_mem_mib,
                                                   config_.alpha);
                },
                step);
          }
        }
      });
      run_begin = run_end;
    }
  }

  if (wal_) wal_commit(ops, force_commit);

  for (Op& op : ops) {
    ShardCounters& c = counters_[op.shard];
    switch (op.kind) {
      case Request::Kind::kSubmit:
        // A pass-through grant is the rounded request: never lowered.
        op.decision.lowered = op.decision.granted_mib + kGrantEps <
                              ladder_.round_up(op.job->requested_mem_mib);
        c.submissions.fetch_add(1, std::memory_order_relaxed);
        if (op.decision.lowered) {
          c.rewrites.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case Request::Kind::kFeedback:
        if (op.applied) {
          (op.success ? c.successes : c.failures)
              .fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case Request::Kind::kCancel:
        if (op.applied) c.cancels.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
}

// --- asynchronous admission --------------------------------------------------

std::size_t Matchd::admit(std::span<Request> requests,
                          std::span<PushResult> results) {
  assert(requests.size() == results.size());
  if (!queue_) {
    std::fill(results.begin(), results.end(), PushResult::kClosed);
    return 0;
  }
  // Injected admission failure reads as backpressure: callers already
  // handle kFull (MatchdEstimator falls back to the synchronous path), so
  // the fault exercises the real rejection flow end to end. Checked once
  // per request in arrival order; a faulted request is refused alone and
  // the queue still offers a place to the ones behind it.
  std::size_t offered = 0;
  for (PushResult& result : results) {
    result = util::fault(config_.durability.faults,
                         util::FaultSite::kQueueAdmit)
                 ? PushResult::kFull
                 : PushResult::kOk;
    if (result == PushResult::kOk) ++offered;
  }
  std::size_t pushed = 0;
  if (offered > 0) {
    if (queue_wait_hist_) {
      const auto now = std::chrono::steady_clock::now();
      for (Request& request : requests) request.admitted = now;
    }
    // Counted before the push: a worker may finish a request before
    // push_bulk() returns.
    in_flight_.fetch_add(offered, std::memory_order_acq_rel);
    pushed = queue_->push_bulk(requests, results);
    if (pushed > 0) {
      async_accepted_.fetch_add(pushed, std::memory_order_relaxed);
    }
    if (pushed < offered) release_in_flight(offered - pushed);
  }
  const auto full = static_cast<std::uint64_t>(
      std::count(results.begin(), results.end(), PushResult::kFull));
  if (full > 0) async_rejected_full_.fetch_add(full, std::memory_order_relaxed);
  return pushed;
}

PushResult Matchd::admit_one(Request&& request) {
  PushResult result = PushResult::kOk;
  (void)admit(std::span<Request>(&request, 1),
              std::span<PushResult>(&result, 1));
  return result;
}

void Matchd::release_in_flight(std::size_t n) {
  if (in_flight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drained_.notify_all();
  }
}

PushResult Matchd::submit_async(const trace::JobRecord& job,
                                SubmitCallback on_decision) {
  Request request;
  request.kind = Request::Kind::kSubmit;
  request.job = job;
  request.on_decision = std::move(on_decision);
  return admit_one(std::move(request));
}

PushResult Matchd::feedback_async(const JobOutcome& outcome,
                                  DoneCallback on_done) {
  Request request;
  request.kind = Request::Kind::kFeedback;
  request.job = outcome.job;
  request.fb = outcome.feedback;
  request.on_done = std::move(on_done);
  return admit_one(std::move(request));
}

PushResult Matchd::cancel_async(const trace::JobRecord& job, MiB granted,
                                DoneCallback on_done) {
  Request request;
  request.kind = Request::Kind::kCancel;
  request.job = job;
  request.granted = granted;
  request.on_done = std::move(on_done);
  return admit_one(std::move(request));
}

void Matchd::worker_main(std::size_t /*worker_index*/) {
  const std::size_t batch_max = std::max<std::size_t>(1, config_.batch_max);
  std::vector<Request> batch;
  std::vector<Op> ops;
  batch.reserve(batch_max);
  ops.reserve(batch_max);
  for (;;) {
    batch.clear();
    if (queue_->pop_bulk(batch, batch_max) == 0) {
      return;  // closed and drained
    }
    batch_drains_.fetch_add(1, std::memory_order_relaxed);
    if (batch_size_hist_) {
      batch_size_hist_->record(static_cast<double>(batch.size()));
    }
    if (queue_wait_hist_) {
      // Queue wait is per REQUEST: the batch's items were admitted at
      // different times, so one drain timestamp serves them all but each
      // keeps its own admission stamp. Requests admitted while the
      // histogram did not exist carry no stamp and must be skipped, not
      // recorded as an epoch-sized wait.
      const auto now = std::chrono::steady_clock::now();
      for (const Request& r : batch) {
        if (r.admitted != std::chrono::steady_clock::time_point{}) {
          queue_wait_hist_->record(
              std::chrono::duration<double>(now - r.admitted).count());
        }
      }
    }

    ops.clear();
    for (const Request& r : batch) {
      ops.push_back(Op{r.kind, &r.job, &r.fb, r.granted});
    }
    apply(ops, /*force_commit=*/true);

    // Callbacks and completions in ARRIVAL order, outside every lock:
    // callbacks may re-enter the service (feedback_async from a decision
    // callback is the common pattern). The batch leaves the in-flight
    // count once, after its last callback.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Request& r = batch[i];
      if (r.kind == Request::Kind::kSubmit) {
        if (r.on_decision) r.on_decision(ops[i].decision);
      } else if (r.on_done) {
        r.on_done();
      }
    }
    release_in_flight(batch.size());
  }
}

void Matchd::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

// --- observability -----------------------------------------------------------

void Matchd::register_metrics() {
  obs::Registry* reg = config_.metrics;
  if (!reg) return;

  std::uint32_t period = std::max<std::uint32_t>(1, config_.metrics_sample_period);
  while ((period & (period - 1)) != 0) period &= period - 1;  // round down
  sample_mask_ = period - 1;

  // 10 ns .. ~10 s in factor-2 steps: covers a shard-lock fast path and a
  // badly contended queue alike.
  const obs::HistogramSpec latency{1e-8, 2.0, 30};
  submit_hist_ = &reg->histogram(
      "resmatch_matchd_op_latency_seconds",
      "Latency of matchd operations (sampled 1-in-N per thread)", latency,
      {{"op", "submit"}});
  feedback_hist_ = &reg->histogram("resmatch_matchd_op_latency_seconds", "",
                                   latency, {{"op", "feedback"}});
  cancel_hist_ = &reg->histogram("resmatch_matchd_op_latency_seconds", "",
                                 latency, {{"op", "cancel"}});
  queue_wait_hist_ = &reg->histogram(
      "resmatch_matchd_queue_wait_seconds",
      "Time async requests spend in the admission queue", latency);
  // 1 .. 4096 in factor-2 steps. The batched worker path records only
  // this histogram plus queue wait — per-op latency histograms belong to
  // the synchronous API, where one operation is one timed unit of work.
  batch_size_hist_ = &reg->histogram(
      "resmatch_batch_size", "Requests drained per worker batch",
      obs::HistogramSpec{1.0, 2.0, 13});

  // Counters/gauges are pull providers over the atomics the service
  // already maintains — zero added work per operation. They capture
  // `this`, so the destructor removes them.
  const auto add_counter = [&](const char* name, const char* help,
                               obs::Labels labels,
                               std::function<std::uint64_t()> fn) {
    reg->counter_fn(name, help, labels, std::move(fn));
    provider_keys_.emplace_back(name, std::move(labels));
  };
  const auto add_gauge = [&](const char* name, const char* help,
                             obs::Labels labels, std::function<double()> fn) {
    reg->gauge_fn(name, help, labels, std::move(fn));
    provider_keys_.emplace_back(name, std::move(labels));
  };
  const auto sum_shards =
      [this](std::atomic<std::uint64_t> ShardCounters::* member) {
        std::uint64_t total = 0;
        for (const ShardCounters& c : counters_) {
          total += (c.*member).load(std::memory_order_relaxed);
        }
        return total;
      };

  add_counter("resmatch_matchd_ops_total", "Operations served, by kind",
              {{"op", "submit"}}, [this, sum_shards] {
                return sum_shards(&ShardCounters::submissions);
              });
  add_counter("resmatch_matchd_ops_total", "", {{"op", "feedback"}},
              [this, sum_shards] {
                return sum_shards(&ShardCounters::successes) +
                       sum_shards(&ShardCounters::failures);
              });
  add_counter("resmatch_matchd_ops_total", "", {{"op", "cancel"}},
              [this, sum_shards] {
                return sum_shards(&ShardCounters::cancels);
              });
  add_counter("resmatch_matchd_rewrites_total",
              "Submissions granted below the rounded request", {},
              [this, sum_shards] {
                return sum_shards(&ShardCounters::rewrites);
              });
  add_counter("resmatch_matchd_outcomes_total", "Feedback results, by kind",
              {{"outcome", "success"}}, [this, sum_shards] {
                return sum_shards(&ShardCounters::successes);
              });
  add_counter("resmatch_matchd_outcomes_total", "",
              {{"outcome", "failure"}}, [this, sum_shards] {
                return sum_shards(&ShardCounters::failures);
              });
  add_counter("resmatch_matchd_async_accepted_total",
              "Requests admitted into the async queue", {}, [this] {
                return async_accepted_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_matchd_backpressure_rejects_total",
              "Async requests rejected because the queue was full", {},
              [this] {
                return async_rejected_full_.load(std::memory_order_relaxed);
              });
  add_gauge("resmatch_matchd_queue_depth",
            "Requests waiting in the admission queue", {}, [this] {
              return queue_ ? static_cast<double>(queue_->size()) : 0.0;
            });
  add_counter("resmatch_batch_drains_total",
              "Bulk drains executed by the worker pool", {}, [this] {
                return batch_drains_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_batch_wal_commits_total",
              "Forced WAL commit points (one write+fsync per distinct WAL "
              "file per batch)",
              {}, [this] {
                return batch_wal_commits_.load(std::memory_order_relaxed);
              });

  add_counter("resmatch_store_lookups_total",
              "Estimator-store group lookups, by result",
              {{"result", "hit"}}, [this] { return store_.stats().hits; });
  add_counter("resmatch_store_lookups_total", "", {{"result", "miss"}},
              [this] { return store_.stats().misses; });
  add_counter("resmatch_store_evictions_total",
              "Groups dropped at the LRU bound", {},
              [this] { return store_.stats().evictions; });
  add_gauge("resmatch_store_entries", "Resident similarity groups", {},
            [this] { return static_cast<double>(store_.size()); });
  for (std::size_t shard = 0; shard < store_.shard_count(); ++shard) {
    add_gauge("resmatch_store_shard_occupancy",
              "Resident fraction of one stripe's entry bound",
              {{"shard", std::to_string(shard)}}, [this, shard] {
                return static_cast<double>(
                           store_.shard_stats(shard).entries) /
                       static_cast<double>(store_.per_shard_capacity());
              });
  }

  // Durability series are exported unconditionally (flat zero with the
  // WAL off) so dashboards and alerts need not special-case deployments.
  add_counter("resmatch_wal_appends_total",
              "WAL records accepted (buffered or written)", {},
              [this] { return wal_ ? wal_->stats().appends : 0; });
  add_counter("resmatch_wal_append_failures_total",
              "WAL appends refused after log repair (pre-retry count)", {},
              [this] { return wal_ ? wal_->stats().append_failures : 0; });
  add_counter("resmatch_wal_bytes_total", "Bytes written to WAL files", {},
              [this] { return wal_ ? wal_->stats().bytes_written : 0; });
  add_counter("resmatch_wal_fsyncs_total", "fsync(2) calls on WAL files",
              {}, [this] { return wal_ ? wal_->stats().fsyncs : 0; });
  add_counter("resmatch_wal_rotations_total",
              "WAL generation rotations (failed snapshots do not re-rotate)",
              {},
              [this] { return wal_ ? wal_->stats().rotations : 0; });
  add_counter("resmatch_matchd_compactions_total",
              "Completed checkpoint cycles (rotate + snapshot + GC)", {},
              [this] {
                return compactions_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_matchd_degraded_ops_total",
              "Operations served pass-through or dropped while degraded",
              {}, [this] {
                return degraded_ops_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_matchd_wal_retries_total",
              "WAL/snapshot attempts beyond each operation's first", {},
              [this] {
                return wal_retries_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_matchd_wal_giveups_total",
              "WAL appends abandoned after retry exhaustion", {}, [this] {
                return wal_giveups_.load(std::memory_order_relaxed);
              });
  // Learned-estimator series are exported unconditionally (flat zero
  // without a model) for the same dashboard-uniformity reason as the
  // durability series above.
  add_counter("resmatch_estimator_model_updates_total",
              "Learned-model mutations framed into the WAL", {}, [this] {
                return model_updates_.load(std::memory_order_relaxed);
              });
  add_gauge("resmatch_estimator_coverage",
            "Prequential coverage EWMA of the learned model (0 without "
            "one)",
            {}, [this] {
              if (!model_) return 0.0;
              std::lock_guard<std::mutex> lock(model_mutex_);
              const auto s = model_->model_stats();
              return s ? s->coverage : 0.0;
            });
  add_gauge("resmatch_estimator_margin",
            "Risk-aware multiplicative safety margin of the learned model",
            {}, [this] {
              if (!model_) return 0.0;
              std::lock_guard<std::mutex> lock(model_mutex_);
              const auto s = model_->model_stats();
              return s ? s->margin : 0.0;
            });
  add_gauge("resmatch_estimator_fallback_groups",
            "Similarity groups pinned back to successive approximation "
            "after sustained model mispredictions",
            {}, [this] {
              if (!model_) return 0.0;
              std::lock_guard<std::mutex> lock(model_mutex_);
              const auto s = model_->model_stats();
              return s ? static_cast<double>(s->groups_fallback) : 0.0;
            });
  add_gauge("resmatch_matchd_degraded",
            "1 while serving pass-through because the WAL refuses writes",
            {}, [this] {
              return degraded_.load(std::memory_order_relaxed) ? 1.0 : 0.0;
            });
  // 1 us .. ~17 min in factor-2 steps: a degraded spell can be one
  // retried write or a minutes-long disk outage.
  recovery_hist_ = &reg->histogram(
      "resmatch_matchd_recovery_seconds",
      "Time spent in degraded mode before the WAL recovered",
      obs::HistogramSpec{1e-6, 2.0, 30});
}

void Matchd::unregister_metrics() {
  if (!config_.metrics) return;
  for (const auto& [name, labels] : provider_keys_) {
    config_.metrics->remove(name, labels);
  }
  provider_keys_.clear();
}

// --- introspection -----------------------------------------------------------

MatchdStats Matchd::stats() const {
  MatchdStats out;
  out.shards.reserve(counters_.size());
  for (const ShardCounters& c : counters_) {
    MatchdShardStats s;
    s.submissions = c.submissions.load(std::memory_order_relaxed);
    s.rewrites = c.rewrites.load(std::memory_order_relaxed);
    s.successes = c.successes.load(std::memory_order_relaxed);
    s.failures = c.failures.load(std::memory_order_relaxed);
    s.cancels = c.cancels.load(std::memory_order_relaxed);
    out.submissions += s.submissions;
    out.rewrites += s.rewrites;
    out.successes += s.successes;
    out.failures += s.failures;
    out.cancels += s.cancels;
    out.shards.push_back(s);
  }
  out.async_accepted = async_accepted_.load(std::memory_order_relaxed);
  out.async_rejected_full =
      async_rejected_full_.load(std::memory_order_relaxed);
  out.batch_drains = batch_drains_.load(std::memory_order_relaxed);
  out.batch_wal_commits =
      batch_wal_commits_.load(std::memory_order_relaxed);
  out.queue_depth = queue_ ? queue_->size() : 0;
  out.store = store_.stats();
  out.groups = out.store.entries;
  out.evictions = out.store.evictions;
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.degraded_ops = degraded_ops_.load(std::memory_order_relaxed);
  out.wal_retries = wal_retries_.load(std::memory_order_relaxed);
  out.wal_giveups = wal_giveups_.load(std::memory_order_relaxed);
  out.compactions = compactions_.load(std::memory_order_relaxed);
  out.model_updates = model_updates_.load(std::memory_order_relaxed);
  if (wal_) out.wal = wal_->stats();
  return out;
}

std::vector<double> Matchd::model_state() const {
  if (!model_) return {};
  std::lock_guard<std::mutex> lock(model_mutex_);
  return model_->save_state();
}

std::size_t Matchd::invariant_violations() const {
  std::size_t violations = 0;
  store_.for_each([&](std::uint64_t, const core::SaGroupState& g) {
    if (!g.invariants_hold()) ++violations;
  });
  return violations;
}

bool Matchd::save_store(const std::string& path) const {
  return write_snapshot(
      path,
      [this](const RecordSink& put) {
        store_.for_each([&](std::uint64_t key, const core::SaGroupState& g) {
          const auto fields = g.to_fields();
          put(WalRecordType::kUpsert, key, fields.data(), fields.size());
        });
        if (model_) {
          const std::vector<double> state = model_state();
          put(WalRecordType::kModelState, 0, state.data(), state.size());
        }
      },
      config_.durability.faults);
}

util::Expected<std::size_t> Matchd::load_snapshot(
    const std::string& path, std::vector<double>& model_out) {
  // Decode the whole file before touching the store: a snapshot refused
  // at its last frame restores nothing.
  std::vector<std::pair<std::uint64_t, core::SaGroupState>> groups;
  const auto read = read_snapshot(
      path,
      [&](WalRecordType type, std::uint64_t key, const double* fields,
          std::size_t n_fields) {
        if (type == WalRecordType::kModelState) {
          model_out.assign(fields, fields + n_fields);
          return true;
        }
        const auto state = core::SaGroupState::from_fields({fields, n_fields});
        if (state) groups.emplace_back(key, *state);
        return state.has_value();
      },
      config_.durability.faults);
  if (!read) return util::Expected<std::size_t>::failure(read.error());
  for (const auto& [key, state] : groups) store_.restore(key, state);
  return groups.size();
}

util::Expected<std::size_t> Matchd::restore_store(const std::string& path) {
  std::vector<double> state;
  auto rows = load_snapshot(path, state);
  if (rows && model_ && !state.empty()) {
    std::lock_guard<std::mutex> lock(model_mutex_);
    if (!model_->load_state(state)) {
      return util::Expected<std::size_t>::failure(
          "matchd: snapshot model state rejected by estimator '" +
          config_.model_estimator + "'");
    }
  }
  return rows;
}

// --- durability --------------------------------------------------------------

bool Matchd::wal_buffer_locked(std::uint64_t key,
                               const core::SaGroupState& g) {
  // Pure encoding, no I/O: the shard lock only fixes frame ORDER. The
  // retries (and their backoff sleeps) belong to wal_commit(), which
  // runs after the lock is released — a sick disk backs off without
  // stalling every other key hashed to the shard.
  const auto fields = g.to_fields();
  return wal_->append_buffered(store_.shard_of(key), key, fields.data(),
                               fields.size());
}

bool Matchd::wal_buffer_model_locked() {
  // Full model state per frame (last record wins on replay): no delta
  // encoding, so a single surviving frame is enough to recover the model
  // exactly. Caller holds model_mutex_, which both orders the frames and
  // makes save_state() a consistent point-in-time capture.
  const std::vector<double> state = model_->save_state();
  model_updates_.fetch_add(1, std::memory_order_relaxed);
  return wal_->append_model_buffered(kModelWalShard, state.data(),
                                     state.size());
}

void Matchd::wal_commit(std::span<const Op> ops, bool force) {
  // One commit per distinct WAL file, outside every lock. Store shards
  // outnumber WAL files by design (DurabilityConfig::wal_shards), so a
  // batch's many shard runs fold onto few files and pay few fsyncs.
  std::size_t frames = 0;
  bool buffer_ok = true;
  // Each file framed into, with the key of its first frame: the seed of
  // that file's retry jitter.
  std::vector<std::pair<std::size_t, std::uint64_t>> files;
  for (const Op& op : ops) {
    if (!op.framed) {
      buffer_ok = buffer_ok && !op.applied;  // applied but not framed
      continue;
    }
    ++frames;
    const std::size_t file =
        model_ ? kModelWalShard : op.shard % wal_->shard_count();
    if (std::none_of(files.begin(), files.end(),
                     [&](const auto& f) { return f.first == file; })) {
      files.emplace_back(file, op.key);
    }
  }
  if (!buffer_ok) {
    wal_giveups_.fetch_add(1, std::memory_order_relaxed);
    enter_degraded();
  }
  bool committed = buffer_ok;
  for (const auto& [file, jitter_key] : files) {
    const util::RetryResult r = util::retry_with(
        config_.durability.retry,
        config_.durability.retry_seed ^ jitter_key, [&] {
          return force ? wal_->flush(file) : wal_->commit(file);
        });
    if (r.attempts > 1) {
      wal_retries_.fetch_add(r.attempts - 1, std::memory_order_relaxed);
    }
    if (r.ok) {
      if (force) {
        batch_wal_commits_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      // The frames stay buffered in order; they reach disk with the next
      // successful commit on this file (or the final flush), and
      // degraded mode stops new state from outrunning the log.
      wal_giveups_.fetch_add(1, std::memory_order_relaxed);
      committed = false;
      enter_degraded();
    }
  }
  if (committed) {
    appends_since_compact_.fetch_add(frames, std::memory_order_relaxed);
  }
  maybe_compact();
}

void Matchd::enter_degraded() {
  bool expected = false;
  if (degraded_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(degraded_mutex_);
    degraded_since_ = std::chrono::steady_clock::now();
  }
}

bool Matchd::try_exit_degraded(std::uint64_t key) {
  // One heartbeat probe, no retries: if a no-op record commits, real
  // appends will too. Failing cheaply keeps degraded operations fast.
  if (!wal_->append_heartbeat(store_.shard_of(key))) return false;
  bool expected = true;
  if (degraded_.compare_exchange_strong(expected, false,
                                        std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(degraded_mutex_);
    if (recovery_hist_) {
      recovery_hist_->record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        degraded_since_)
              .count());
    }
  }
  return true;
}

void Matchd::maybe_compact() {
  const std::uint64_t every = config_.durability.compact_every;
  if (every == 0 ||
      appends_since_compact_.load(std::memory_order_relaxed) < every) {
    return;
  }
  std::unique_lock<std::mutex> lock(compact_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // someone else is already compacting
  if (appends_since_compact_.load(std::memory_order_relaxed) < every) {
    return;  // they finished while we waited for the lock
  }
  (void)checkpoint_locked();
}

bool Matchd::checkpoint() {
  if (!wal_) return false;
  std::lock_guard<std::mutex> lock(compact_mutex_);
  return checkpoint_locked();
}

bool Matchd::checkpoint_locked() {
  // Rotate FIRST: everything in the old generations is then covered by
  // the snapshot below, making them garbage once the rename lands. But
  // never rotate while a snapshot from an earlier failed attempt is still
  // pending — that rotation already covers the older generations, and a
  // snapshot taken now is strictly newer than every record they hold, so
  // retrying the snapshot alone preserves the GC invariant.
  if (!snapshot_pending_) {
    if (!wal_->rotate()) {
      // Back off a full compact_every before the next automatic attempt;
      // without this, every committed operation past the threshold would
      // re-enter here and retry inline on the serving thread.
      appends_since_compact_.store(0, std::memory_order_relaxed);
      return false;
    }
    snapshot_pending_ = true;
  }
  const util::RetryResult r = util::retry_with(
      config_.durability.retry,
      config_.durability.retry_seed ^ 0xC0FFEEULL,
      [&] { return save_store(snapshot_path()); });
  if (r.attempts > 1) {
    wal_retries_.fetch_add(r.attempts - 1, std::memory_order_relaxed);
  }
  if (!r.ok) {
    // Old generations stay on disk: recovery replays more records than
    // strictly needed, which costs time, never data. Reset the counter so
    // the retry waits for the next compact_every window instead of firing
    // on every subsequent operation.
    appends_since_compact_.store(0, std::memory_order_relaxed);
    return false;
  }
  snapshot_pending_ = false;
  wal_->remove_old_generations();
  appends_since_compact_.store(0, std::memory_order_relaxed);
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::string Matchd::snapshot_path() const {
  return config_.durability.wal_dir + "/snapshot.csv";
}

bool Matchd::flush_wal() { return wal_ && wal_->flush_all(); }

util::Expected<RecoveryStats> Matchd::recover(RecoverMode mode) {
  using Result = util::Expected<RecoveryStats>;
  if (config_.durability.wal_dir.empty()) {
    return Result::failure("matchd: recover() without a wal_dir");
  }
  RecoveryStats rs;
  // Model state candidates: the snapshot's model frame, overridden by the
  // LAST kModelState record the replay delivers (the log is strictly
  // newer than the snapshot it survived).
  std::vector<double> model_state;
  if (mode == RecoverMode::kSnapshotAndWal) {
    const std::string snap = snapshot_path();
    std::error_code ec;
    if (std::filesystem::exists(snap, ec)) {
      util::Expected<std::size_t> rows = std::size_t{0};
      const util::RetryResult rr = util::retry_with(
          config_.durability.retry,
          config_.durability.retry_seed ^ 0x5EC0FE7ULL, [&] {
            rows = load_snapshot(snap, model_state);
            return rows.has_value();
          });
      if (rr.attempts > 1) {
        wal_retries_.fetch_add(rr.attempts - 1, std::memory_order_relaxed);
      }
      if (!rows) {
        return Result::failure(
            "matchd: snapshot unreadable (" + rows.error() +
            "); retry with RecoverMode::kWalOnly to replay the log alone");
      }
      rs.snapshot_rows = rows.value();
    }
  }
  std::uint64_t invalid = 0;
  auto replayed = Wal::replay_typed(
      config_.durability.wal_dir,
      [&](WalRecordType type, std::uint64_t key, const double* fields,
          std::size_t n_fields) {
        if (type == WalRecordType::kModelState) {
          if (model_) model_state.assign(fields, fields + n_fields);
          return;
        }
        auto state = core::SaGroupState::from_fields({fields, n_fields});
        if (!state) {
          ++invalid;
          return;
        }
        store_.restore(key, std::move(*state));
      });
  if (!replayed) return Result::failure(replayed.error());
  rs.wal_records = replayed.value().records;
  rs.wal_files = replayed.value().files;
  rs.torn_files = replayed.value().torn_files;
  rs.model_records = replayed.value().model_records;
  if (model_ && !model_state.empty()) {
    std::lock_guard<std::mutex> lock(model_mutex_);
    if (!model_->load_state(model_state)) {
      // A rejected blob leaves the model cold rather than failing the
      // whole recovery: group state is intact and the model re-learns.
      ++invalid;
    }
  }
  rs.invalid_records = invalid;
  return rs;
}

void Matchd::simulate_crash(bool leave_torn_tail) {
  if (queue_) queue_->close();
  if (pool_) pool_->join();
  if (wal_) wal_->simulate_crash(leave_torn_tail);
}

// --- MatchdEstimator ---------------------------------------------------------

std::string MatchdEstimator::name() const {
  const std::string& inner = service_->config().model_estimator;
  return "matchd[" + (inner.empty() ? "successive-approximation" : inner) +
         "]";
}

MiB MatchdEstimator::estimate(const trace::JobRecord& job,
                              const core::SystemState& /*state*/) {
  if (service_->async_enabled()) {
    std::promise<MatchDecision> promise;
    auto decision = promise.get_future();
    const PushResult result = service_->submit_async(
        job, [&promise](const MatchDecision& d) { promise.set_value(d); });
    if (result == PushResult::kOk) return decision.get().granted_mib;
    // Backpressure on a serial driver: fall through to the direct path so
    // the replay makes progress (the rejection is still counted).
  }
  return service_->submit(job).granted_mib;
}

MiB MatchdEstimator::preview(const trace::JobRecord& job,
                             const core::SystemState& /*state*/) const {
  return service_->preview(job);
}

void MatchdEstimator::cancel(const trace::JobRecord& job, MiB granted) {
  if (service_->async_enabled()) {
    std::promise<void> promise;
    auto done = promise.get_future();
    const PushResult result = service_->cancel_async(
        job, granted, [&promise] { promise.set_value(); });
    if (result == PushResult::kOk) {
      done.get();
      return;
    }
  }
  service_->cancel(job, granted);
}

void MatchdEstimator::feedback(const trace::JobRecord& job,
                               const core::Feedback& fb) {
  if (service_->async_enabled()) {
    std::promise<void> promise;
    auto done = promise.get_future();
    const PushResult result = service_->feedback_async(
        JobOutcome{job, fb}, [&promise] { promise.set_value(); });
    if (result == PushResult::kOk) {
      done.get();
      return;
    }
  }
  service_->feedback(job, fb);
}

void MatchdEstimator::set_ladder(core::CapacityLadder ladder) {
  Estimator::set_ladder(ladder);
  service_->set_ladder(std::move(ladder));
}

}  // namespace resmatch::svc
