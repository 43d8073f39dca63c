#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/multi_resource.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/event_queue.hpp"
#include "sim/mr_simulator.hpp"
#include "sim/timeseries.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"
#include "trace/job_stream.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace resmatch::sim {

namespace {

/// Why an execution attempt ends.
enum class Outcome { kSuccess, kResourceFailure, kIntrinsicFailure };

struct RunningRecord {
  std::size_t job_slot = 0;
  Allocation allocation;
  ResourceVector granted{};
  Seconds start = 0.0;
  Seconds expected_end = 0.0;  ///< per the runtime input the policy saw
  Outcome outcome = Outcome::kSuccess;
  /// Resource failure only: the dimension whose crossing fired first.
  std::size_t culprit = kDimMem;
  /// Resource failure only: timed by a footprint crossing, not a draw.
  bool midjob = false;
  bool active = false;
  /// Position of this job's entry in the running-set index.
  std::size_t index_pos = 0;
};

/// Per-pool busy/capacity integrals, keyed by the initial pool order.
struct PoolIntegral {
  MiB capacity = 0.0;
  double busy_node_seconds = 0.0;
  double capacity_node_seconds = 0.0;
};

// ---------------------------------------------------------------------------
// The simulation loop, for scalar and vector runs alike.
//
// Three independently ordered event sources are merged:
//
//   class 0: the arrival stream, one-record lookahead;
//   class 1: availability changes, a cursor over a pre-sorted index;
//   class 2: job-end events, the only dynamic set, in a binary heap
//            (sim::EventQueue) sized by jobs *in flight*, not trace
//            length.
//
// Smallest time wins; equal times pop arrival < availability < job end,
// each class in cursor/push order. That is the order the engine this
// loop replaced produced by pushing every event into one heap (arrivals
// first, then availability, then job ends), and the golden digests in
// tests/sim_golden.hpp hold every entry point to it bit for bit.
//
// A run packs `dims` resource dimensions (memory first). `annotations`,
// when given, parallels the stream's pull order with each job's request
// and usage vectors and footprint profile. Without it every job is the
// flat, memory-only annotation of its record (trace::scenario_from), so
// a scalar run carries no per-job state beyond the record itself.
// ---------------------------------------------------------------------------
MrSimulationResult run(trace::JobStream& stream,
                       const std::vector<trace::MrJobInfo>* annotations,
                       std::size_t dims, const ClusterSpec& cluster_spec,
                       core::VectorEstimator& estimator,
                       sched::SchedulingPolicy& policy,
                       const SimulationConfig& config) {
  Cluster cluster(cluster_spec, config.allocation);
  // Per-dimension rounding ladders; dimension 0's is exactly ladder().
  std::array<core::CapacityLadder, kMaxResourceDims> ladders;
  for (std::size_t d = 0; d < dims; ++d) {
    ladders[d] = cluster.ladder_for_dim(d);
    estimator.set_ladder(d, ladders[d]);
  }
  util::Rng rng(config.seed);

  MrSimulationResult mr_result;
  SimulationResult& result = mr_result.base;
  result.estimator_name = estimator.estimator_name();
  result.policy_name = policy.name();
  const std::size_t base_machines = cluster.machine_count();

  // --- class 0: arrival lookahead ----------------------------------------
  std::optional<trace::JobRecord> pending = stream.next();
  const Seconds first_submit = pending ? pending->submit : 0.0;
  // Offered-load accumulation in pull order: the same sum, first and last
  // submit that Workload::offered_load reads off the materialized vector.
  double pulled_work = pending ? pending->work() : 0.0;
  Seconds last_submit = first_submit;
  std::size_t pulled = pending ? 1 : 0;
  auto pull_next = [&] {
    pending = stream.next();
    if (pending) {
      if (pending->submit < last_submit) {
        throw std::invalid_argument(
            "simulate: jobs must be sorted by submit time");
      }
      pulled_work += pending->work();
      last_submit = pending->submit;
      ++pulled;
    }
  };

  // --- class 1: availability cursor --------------------------------------
  std::vector<std::size_t> avail_order(config.availability.size());
  for (std::size_t i = 0; i < avail_order.size(); ++i) avail_order[i] = i;
  std::stable_sort(avail_order.begin(), avail_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return config.availability[a].time <
                            config.availability[b].time;
                   });
  std::size_t avail_pos = 0;
  // While capacity additions are still pending, "does not fit the current
  // cluster" is not "can never run": unschedulable-drop decisions wait.
  std::size_t pending_capacity_adds = 0;
  for (const auto& change : config.availability) {
    if (change.delta > 0) ++pending_capacity_adds;
  }

  // --- class 2: job ends --------------------------------------------------
  EventQueue<std::size_t> events;  // payload: running slot

  // Live jobs, slot-allocated: a slot holds the record (and its attempt
  // count) from arrival until the job leaves the system, so memory tracks
  // jobs in flight. Queue entries and running records refer to jobs by
  // slot — opaque to policies, so decision streams are unaffected.
  // Annotated runs add the job's annotation index. A queued job's preview
  // vector lives in its queue entry.
  //
  // Each slot also holds the job's similarity-group handles, one 32-bit
  // core::GroupHandle per dimension in a flat slot x dims vector. The
  // estimator fills a handle the first time the job's group exists, so
  // later calls for the job skip the key and the index probe. A retried
  // job keeps its handles; a reused slot starts unresolved.
  std::vector<trace::JobRecord> job_slots;
  std::vector<std::uint32_t> job_attempts;
  std::vector<core::GroupHandle> job_groups;
  std::vector<std::size_t> job_annotation;
  std::vector<std::size_t> free_job_slots;
  auto groups_of = [&](std::size_t slot) {
    return std::span<core::GroupHandle>(job_groups).subspan(slot * dims, dims);
  };
  auto admit_job = [&](trace::JobRecord record) {
    const std::size_t annotation_index = pulled - 1;
    std::size_t slot;
    if (!free_job_slots.empty()) {
      slot = free_job_slots.back();
      free_job_slots.pop_back();
      job_slots[slot] = std::move(record);
      job_attempts[slot] = 0;
      std::ranges::fill(groups_of(slot), core::GroupHandle{});
    } else {
      slot = job_slots.size();
      job_slots.push_back(std::move(record));
      job_attempts.push_back(0);
      job_groups.resize(job_groups.size() + dims);
      if (annotations) job_annotation.emplace_back();
    }
    if (annotations) job_annotation[slot] = annotation_index;
    return slot;
  };
  auto retire_job = [&](std::size_t slot) { free_job_slots.push_back(slot); };
  auto annotation = [&](std::size_t slot) -> trace::MrJobInfo {
    if (annotations) return (*annotations)[job_annotation[slot]];
    const trace::JobRecord& record = job_slots[slot];
    return {ResourceVector(record.requested_mem_mib),
            ResourceVector(record.used_mem_mib),
            {}};
  };
  auto round_requested = [&](const ResourceVector& requested) {
    ResourceVector out;
    for (std::size_t d = 0; d < dims; ++d) {
      out[d] = ladders[d].round_up(requested[d]);
    }
    return out;
  };

  std::deque<sched::QueuedJob> queue;
  std::vector<RunningRecord> running;  // slot-allocated
  std::vector<std::size_t> free_slots;

  // --- running-set index (hot path) --------------------------------------
  // A live mirror of the active slots, maintained on job start/end instead
  // of being rebuilt on every pick_next iteration. A start appends; an end
  // moves the last entry into the vacated position, which its running
  // record names (RunningRecord::index_pos). Both are O(1), and the order
  // of the index is unspecified, as the policy contract allows.
  std::vector<std::size_t> index_slots;  // position -> running slot
  std::vector<sched::RunningJobInfo> index_infos;
  auto index_insert = [&](std::size_t slot, sched::RunningJobInfo info) {
    running[slot].index_pos = index_slots.size();
    index_slots.push_back(slot);
    index_infos.push_back(info);
  };
  auto index_erase = [&](std::size_t slot) {
    const std::size_t pos = running[slot].index_pos;
    assert(pos < index_slots.size() && index_slots[pos] == slot);
    const std::size_t moved = index_slots.back();
    index_slots[pos] = moved;
    index_infos[pos] = index_infos.back();
    running[moved].index_pos = pos;
    index_slots.pop_back();
    index_infos.pop_back();
  };

  // Aggregates.
  double productive_node_seconds = 0.0;
  double wasted_node_seconds = 0.0;
  double kill_progress_sum = 0.0;
  stats::Summary wait_stats, slowdown_stats, bounded_stats;
  stats::PercentileTracker slowdown_pct;
  Seconds last_event = first_submit;
  // Time-integrated machine count: with dynamic availability the
  // utilization denominator is this integral, not machines x makespan.
  double capacity_integral = 0.0;
  Seconds capacity_since = first_submit;

  std::vector<PoolIntegral> pool_integrals;
  for (const auto& snap : cluster.snapshot()) {
    pool_integrals.push_back({snap.capacity, 0.0, 0.0});
  }
  Seconds pool_since = first_submit;
  auto integrate_pools = [&](Seconds now) {
    const Seconds dt = now - pool_since;
    if (dt <= 0.0) return;
    // Straight off the cluster's incremental counters: allocation-free.
    const std::size_t n = std::min(cluster.pool_count(), pool_integrals.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto counters = cluster.pool_counters(i);
      pool_integrals[i].busy_node_seconds +=
          static_cast<double>(counters.busy) * dt;
      pool_integrals[i].capacity_node_seconds +=
          static_cast<double>(counters.present) * dt;
    }
    pool_since = now;
  };

  // Engine observability: event throughput and scheduler decision time.
  // All reads of the wall clock are metric-only; simulated time is
  // untouched, so instrumented runs stay decision-identical.
  obs::Counter* events_counter = nullptr;
  obs::Histogram* schedule_hist = nullptr;
  if (config.metrics) {
    events_counter = &config.metrics->counter(
        "resmatch_sim_events_total", "Discrete events processed");
    // 100 ns .. ~0.4 s: one scheduling pass touches the whole queue head
    // and the policy, so it is orders slower than a matchd op.
    schedule_hist = &config.metrics->histogram(
        "resmatch_sim_schedule_seconds",
        "Wall time of one scheduler decision pass", {1e-7, 2.0, 22});
  }
  std::uint64_t events_processed = 0;
  const auto wall_start = std::chrono::steady_clock::now();

  auto system_state = [&]() {
    core::SystemState state;
    state.now = last_event;
    state.busy_fraction = cluster.busy_fraction();
    state.queue_length = queue.size();
    return state;
  };

  // A side-effect-free preview: the committed estimate happens at dispatch
  // (paper Figure 2 places estimation before allocation, and a queued
  // job's group keeps learning while it waits). The preview memo: while
  // the estimator keeps reporting this epoch for the job, the stored
  // preview is guaranteed current and the refresh can be skipped.
  auto set_memo = [](sched::QueuedJob& q, std::optional<std::uint64_t> epoch) {
    q.preview_memoized = epoch.has_value();
    if (epoch) q.preview_epoch = *epoch;
  };
  auto refresh_preview = [&](sched::QueuedJob& q) {
    const trace::JobRecord& record = job_slots[q.trace_index];
    const ResourceVector requested = annotation(q.trace_index).requested;
    const auto groups = groups_of(q.trace_index);
    q.preview = estimator.preview(record, requested, groups, system_state());
    set_memo(q, estimator.preview_epoch(record, requested, groups));
  };

  // A job the cluster can never host (even empty) would block FCFS
  // forever; it is rejected as a real scheduler would. With capacity
  // additions still scheduled, it is held instead.
  auto unschedulable = [&](const sched::QueuedJob& q) {
    if (pending_capacity_adds > 0) return false;
    return cluster.eligible_total_vec(q.preview, dims) < q.nodes;
  };

  auto make_queued = [&](std::size_t job_slot) {
    const trace::JobRecord& record = job_slots[job_slot];
    sched::QueuedJob q;
    q.trace_index = job_slot;
    q.nodes = record.nodes;
    refresh_preview(q);
    // Runtime input for reservation math: the learned prediction when a
    // predictor is attached, otherwise the user's estimate.
    q.requested_time =
        config.runtime_predictor
            ? config.runtime_predictor->predict(record)
            : (record.requested_time > 0.0 ? record.requested_time
                                           : record.runtime);
    return q;
  };

  auto start_job = [&](const sched::QueuedJob& q, Seconds now) -> bool {
    const trace::JobRecord& record = job_slots[q.trace_index];
    const trace::MrJobInfo info = annotation(q.trace_index);
    const auto groups = groups_of(q.trace_index);
    // Commit the estimate now; the preview the policy saw may be stale.
    const ResourceVector grant =
        estimator.estimate(record, info.requested, groups, system_state());
    auto allocation = cluster.allocate_vec(q.nodes, grant, dims);
    if (!allocation) {
      // The fresh estimate outgrew the preview (group escalation, RL
      // exploration) and no longer fits; undo the commitment.
      estimator.cancel(record, info.requested, groups, grant);
      return false;
    }

    RunningRecord run;
    run.job_slot = q.trace_index;
    run.allocation = *allocation;
    run.granted = grant;
    run.start = now;
    run.expected_end = now + q.requested_time;
    run.active = true;

    // Decide the attempt's fate up front (the trace knows the truth).
    // Intrinsic failures draw first; a flat-profile resource kill draws
    // exactly once however many dimensions overrun (the paper's uniform
    // kill time); footprint crossings draw nothing, their time is known.
    Seconds end;
    if (record.status == trace::JobStatus::kFailed) {
      // Intrinsic (non-resource) failure: the false-positive source for
      // implicit feedback discussed in paper §2.1.
      run.outcome = Outcome::kIntrinsicFailure;
      end = now + rng.uniform() * record.runtime;
    } else {
      std::optional<std::size_t> first_overrun;
      for (std::size_t d = 0; d < dims; ++d) {
        if (info.used_peak[d] > grant[d] + 1e-9) {
          first_overrun = d;
          break;
        }
      }
      if (!first_overrun) {
        run.outcome = Outcome::kSuccess;
        end = now + record.runtime;
      } else if (info.profile.shape == trace::FootprintShape::kFlat) {
        run.outcome = Outcome::kResourceFailure;
        run.culprit = *first_overrun;
        end = now + rng.uniform() * record.runtime;
      } else {
        // The profile crosses each overrun dimension's grant at a known
        // time; the earliest crossing kills the job (ties: lowest dim).
        run.outcome = Outcome::kResourceFailure;
        run.midjob = true;
        Seconds earliest = record.runtime;
        std::size_t culprit = *first_overrun;
        for (std::size_t d = *first_overrun; d < dims; ++d) {
          if (!(info.used_peak[d] > grant[d] + 1e-9)) continue;
          const auto crossing = info.profile.first_crossing(
              grant[d], record.runtime, info.used_peak[d]);
          assert(crossing.has_value());
          if (crossing && *crossing < earliest) {
            earliest = *crossing;
            culprit = d;
          }
        }
        run.culprit = culprit;
        end = now + earliest;
      }
    }

    ++result.attempts;
    ++job_attempts[q.trace_index];
    const ResourceVector rounded = round_requested(info.requested);
    for (std::size_t d = 0; d < dims; ++d) {
      if (grant[d] + 1e-9 < rounded[d]) {
        ++result.lowered_starts;
        break;
      }
    }

    const sched::RunningJobInfo run_info{run.expected_end, record.nodes,
                                         run.granted};
    std::size_t slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
      running[slot] = std::move(run);
    } else {
      slot = running.size();
      running.push_back(std::move(run));
    }
    index_insert(slot, run_info);
    assert(end >= now);
    events.push(end, slot);
    return true;
  };

  auto schedule = [&](Seconds now) {
    // Bounds repeated estimate-then-cancel churn from estimators whose
    // committed grant keeps exceeding the preview (randomized policies).
    int failed_starts = 0;
    for (;;) {
      // Keep the head's preview fresh: strict FCFS blocks on the head, so
      // a stale (too-high) preview would idle machines the head's group
      // has since learned it does not need. With an epoch-capable
      // estimator the refresh is O(1).
      if (!queue.empty()) {
        sched::QueuedJob& head = queue.front();
        if (!head.preview_memoized) {
          refresh_preview(head);
        } else {
          const trace::JobRecord& record = job_slots[head.trace_index];
          const ResourceVector requested =
              annotation(head.trace_index).requested;
          const auto groups = groups_of(head.trace_index);
          const auto epoch = estimator.preview_epoch(record, requested, groups);
          if (!(epoch && *epoch == head.preview_epoch)) {
            // Stale. Nothing mutates the estimator before the new preview,
            // so the epoch just read names it: no second epoch read.
            head.preview =
                estimator.preview(record, requested, groups, system_state());
            set_memo(head, epoch);
          }
        }
        // A head whose refreshed requirement outgrew the whole cluster
        // would block strict FCFS forever.
        if (unschedulable(head)) {
          ++result.dropped_unschedulable;
          retire_job(head.trace_index);
          queue.pop_front();
          continue;
        }
      }
      const auto pick = policy.pick_next(queue, cluster, index_infos, now);
      if (!pick) return;
      assert(*pick < queue.size());
      if (!start_job(queue[*pick], now)) {
        // Fresh estimate no longer fits: refresh this entry's preview so
        // the policy re-decides with current knowledge.
        refresh_preview(queue[*pick]);
        if (++failed_starts > 64) return;
        continue;
      }
      // Order-preserving removal; the FCFS common case picks the head,
      // which must not shift the whole tail.
      if (*pick == 0) {
        queue.pop_front();
      } else {
        queue.erase(queue.begin() + static_cast<long>(*pick));
      }
    }
  };

  auto enqueue = [&](std::size_t job_slot, bool retry) {
    sched::QueuedJob q = make_queued(job_slot);
    if (unschedulable(q)) {
      ++result.dropped_unschedulable;
      RM_LOG(kDebug) << "dropping unschedulable job "
                     << job_slots[job_slot].id;
      retire_job(job_slot);
      return;
    }
    if (retry) {
      // Paper §3.1: a failed job returns to the head of the queue.
      queue.push_front(std::move(q));
    } else {
      queue.push_back(std::move(q));
    }
  };

  enum class Src : std::uint8_t { kNone, kArrival, kAvail, kEnd };
  auto peek = [&]() -> std::pair<Src, Seconds> {
    Src src = Src::kNone;
    Seconds t = 0.0;
    if (pending) {
      src = Src::kArrival;
      t = pending->submit;
    }
    if (avail_pos < avail_order.size()) {
      const Seconds at = config.availability[avail_order[avail_pos]].time;
      if (src == Src::kNone || at < t) {
        src = Src::kAvail;
        t = at;
      }
    }
    if (!events.empty()) {
      const Seconds et = events.top().time;
      if (src == Src::kNone || et < t) {
        src = Src::kEnd;
        t = et;
      }
    }
    return {src, t};
  };

  for (;;) {
    const auto [src, now] = peek();
    if (src == Src::kNone) break;
    ++events_processed;
    last_event = std::max(last_event, now);
    integrate_pools(now);  // charge the elapsed interval to the old state

    switch (src) {
      case Src::kArrival: {
        const std::size_t slot = admit_job(std::move(*pending));
        pull_next();
        enqueue(slot, /*retry=*/false);
        break;
      }
      case Src::kAvail: {
        const AvailabilityEvent& change =
            config.availability[avail_order[avail_pos++]];
        // Events scheduled before the first arrival apply immediately but
        // contribute no (negative) capacity time.
        const Seconds effective = std::max(now, capacity_since);
        capacity_integral += static_cast<double>(cluster.machine_count()) *
                             (effective - capacity_since);
        capacity_since = effective;
        if (change.delta >= 0) {
          cluster.add_machines(change.capacity,
                               static_cast<std::size_t>(change.delta));
          if (change.delta > 0) --pending_capacity_adds;
        } else {
          cluster.remove_machines(change.capacity,
                                  static_cast<std::size_t>(-change.delta));
        }
        break;
      }
      case Src::kEnd: {
        const auto event = events.pop();
        RunningRecord& run = running[event.payload];
        assert(run.active);
        run.active = false;
        cluster.release(run.allocation);
        free_slots.push_back(event.payload);
        index_erase(event.payload);
        const trace::JobRecord& record = job_slots[run.job_slot];
        const trace::MrJobInfo info = annotation(run.job_slot);
        const Seconds elapsed = now - run.start;

        // Feedback to the estimator.
        core::VectorFeedback fb;
        fb.success = run.outcome == Outcome::kSuccess;
        fb.granted = run.granted;
        if (config.explicit_feedback) {
          fb.explicit_feedback = true;
          // What the usage monitor saw at the moment the attempt ended:
          // the full peak on success (and always under flat profiles),
          // but only the footprint-so-far on an early kill — which is
          // exactly why early and late kills teach differently.
          for (std::size_t d = 0; d < dims; ++d) {
            fb.used[d] = info.profile.usage_at(elapsed, record.runtime,
                                               info.used_peak[d]);
          }
          if (run.outcome == Outcome::kResourceFailure) {
            fb.dim_failure[run.culprit] = true;
          }
        }
        estimator.feedback(record, info.requested, groups_of(run.job_slot), fb);

        if (config.runtime_predictor && run.outcome == Outcome::kSuccess) {
          config.runtime_predictor->observe(record, record.runtime);
          config.runtime_predictor->record_accuracy(
              run.expected_end - run.start, record.runtime);
        }

        switch (run.outcome) {
          case Outcome::kSuccess: {
            ++result.completed;
            productive_node_seconds += record.work();
            result.granted_mib_nodes +=
                run.granted[kDimMem] * static_cast<double>(record.nodes);
            result.used_mib_nodes +=
                record.used_mem_mib * static_cast<double>(record.nodes);
            const Seconds response = now - record.submit;
            const Seconds wait = response - record.runtime;
            wait_stats.add(wait);
            const double slowdown = response / record.runtime;
            slowdown_stats.add(slowdown);
            slowdown_pct.add(slowdown);
            bounded_stats.add(std::max(
                1.0,
                response /
                    std::max(record.runtime, config.bounded_slowdown_tau)));
            if (cluster.eligible_total_vec(run.granted, dims) >
                cluster.eligible_total_vec(round_requested(info.requested),
                                           dims)) {
              ++result.benefiting_jobs;
              result.benefiting_nodes += record.nodes;
            }
            retire_job(run.job_slot);
            break;
          }
          case Outcome::kResourceFailure: {
            ++result.resource_failures;
            ++mr_result.kills_by_dim[run.culprit];
            if (run.midjob) ++mr_result.midjob_kills;
            kill_progress_sum +=
                record.runtime > 0.0 ? elapsed / record.runtime : 0.0;
            wasted_node_seconds += static_cast<double>(record.nodes) * elapsed;
            if (job_attempts[run.job_slot] >= config.max_attempts_per_job) {
              ++result.dropped_attempt_cap;
              RM_LOG(kWarn) << "job " << record.id
                            << " dropped after attempt cap";
              retire_job(run.job_slot);
            } else {
              enqueue(run.job_slot, /*retry=*/true);
            }
            break;
          }
          case Outcome::kIntrinsicFailure: {
            ++result.intrinsic_failed;
            wasted_node_seconds += static_cast<double>(record.nodes) * elapsed;
            // Non-resource failures are not resubmitted: rerunning a
            // faulty program would fail again regardless of resources.
            retire_job(run.job_slot);
            break;
          }
        }
        break;
      }
      case Src::kNone:
        break;  // unreachable; the loop broke above
    }

    // Batch same-time events before scheduling so simultaneous arrivals
    // and completions see one consistent state.
    const auto [next_src, next_time] = peek();
    if (next_src != Src::kNone && next_time == now) continue;
    if (schedule_hist != nullptr) {
      obs::ScopedSpan pass("sim.schedule", schedule_hist);
      schedule(now);
    } else {
      schedule(now);
    }
    if (config.timeseries) {
      config.timeseries->observe(now, cluster.busy_fraction(), queue.size(),
                                 index_slots.size());
    }
  }

  result.submitted = pulled;
  const Seconds span = last_submit - first_submit;
  result.offered_load =
      (span <= 0.0 || base_machines == 0)
          ? 0.0
          : pulled_work / (static_cast<double>(base_machines) * span);

  // Jobs stranded in the queue when events ran out (possible only under
  // dynamic availability: the capacity they waited for never sufficed).
  result.dropped_unschedulable += queue.size();

  result.makespan = last_event - first_submit;
  integrate_pools(last_event);
  for (const auto& pool : pool_integrals) {
    result.pool_utilization.push_back(
        {pool.capacity, pool.capacity_node_seconds > 0.0
                            ? pool.busy_node_seconds /
                                  pool.capacity_node_seconds
                            : 0.0});
  }
  capacity_integral += static_cast<double>(cluster.machine_count()) *
                       (last_event - capacity_since);
  if (capacity_integral > 0.0) {
    result.utilization = productive_node_seconds / capacity_integral;
    result.wasted_fraction = wasted_node_seconds / capacity_integral;
  }
  result.mean_wait = wait_stats.mean();
  result.mean_slowdown = slowdown_stats.mean();
  result.mean_bounded_slowdown = bounded_stats.mean();
  result.p95_slowdown = slowdown_pct.percentile(95.0);
  if (result.makespan > 0.0) {
    result.throughput_per_hour =
        static_cast<double>(result.completed) / (result.makespan / 3600.0);
  }
  if (result.resource_failures > 0) {
    mr_result.mean_kill_progress =
        kill_progress_sum / static_cast<double>(result.resource_failures);
  }
  if (config.metrics) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    events_counter->inc(events_processed);
    // Push-style gauges only: providers would capture locals that die with
    // this frame.
    config.metrics
        ->gauge("resmatch_sim_wall_seconds", "Wall time of the last run")
        .set(wall);
    config.metrics
        ->gauge("resmatch_sim_events_per_sec",
                "Event throughput of the last run")
        .set(wall > 0.0 ? static_cast<double>(events_processed) / wall : 0.0);
    config.metrics
        ->counter("resmatch_sim_kill_mem_total",
                  "Resource kills attributed to the memory dimension")
        .inc(mr_result.kills_by_dim[kDimMem]);
    config.metrics
        ->counter("resmatch_sim_kill_cpu_total",
                  "Resource kills attributed to the CPU dimension")
        .inc(mr_result.kills_by_dim[kDimCpu]);
    config.metrics
        ->counter("resmatch_sim_kill_gpu_total",
                  "Resource kills attributed to the GPU dimension")
        .inc(mr_result.kills_by_dim[kDimGpu]);
    config.metrics
        ->counter("resmatch_sim_midjob_kills_total",
                  "Resource kills timed by a footprint crossing")
        .inc(mr_result.midjob_kills);
  }
  return mr_result;
}

}  // namespace

SimulationResult simulate(const trace::Workload& workload,
                          const ClusterSpec& cluster_spec,
                          core::Estimator& estimator,
                          sched::SchedulingPolicy& policy,
                          const SimulationConfig& config) {
  trace::VectorJobStream stream(workload);
  return simulate(stream, cluster_spec, estimator, policy, config);
}

SimulationResult simulate(trace::JobStream& stream,
                          const ClusterSpec& cluster_spec,
                          core::Estimator& estimator,
                          sched::SchedulingPolicy& policy,
                          const SimulationConfig& config) {
  core::VectorEstimator scalar(estimator);
  return run(stream, nullptr, 1, cluster_spec, scalar, policy, config).base;
}

MrSimulationResult simulate_mr(const trace::ScenarioWorkload& scenario,
                               const ClusterSpec& cluster_spec,
                               core::VectorEstimator& estimator,
                               sched::SchedulingPolicy& policy,
                               const MrSimulationConfig& config) {
  const std::size_t dims = config.dims;
  if (dims < 1 || dims > kMaxResourceDims || dims > scenario.dims) {
    throw std::invalid_argument("simulate_mr: dims out of range");
  }
  if (scenario.mr.size() != scenario.base.jobs.size()) {
    throw std::invalid_argument(
        "simulate_mr: scenario.mr must parallel scenario.base.jobs");
  }
  if (estimator.dims() != dims) {
    throw std::invalid_argument("simulate_mr: estimator dims mismatch");
  }
  trace::VectorJobStream stream(scenario.base);
  return run(stream, &scenario.mr, dims, cluster_spec, estimator, policy,
             config.base);
}

}  // namespace resmatch::sim
