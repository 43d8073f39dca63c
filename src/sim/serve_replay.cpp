#include "sim/serve_replay.hpp"

#include <algorithm>
#include <utility>

#include "core/successive_approximation.hpp"
#include "sched/factory.hpp"
#include "sim/cluster.hpp"

namespace resmatch::sim {

namespace {

/// Transparent estimator wrapper that logs every committed grant in the
/// order the simulator asked for it.
class RecordingEstimator final : public core::Estimator {
 public:
  struct Entry {
    JobId job_id = 0;
    MiB granted = 0.0;
  };

  RecordingEstimator(core::Estimator& inner, std::vector<Entry>& log)
      : inner_(&inner), log_(&log) {}

  [[nodiscard]] std::string name() const override {
    return "recording[" + inner_->name() + "]";
  }

  [[nodiscard]] MiB estimate(const trace::JobRecord& job,
                             const core::SystemState& state) override {
    const MiB granted = inner_->estimate(job, state);
    log_->push_back({job.id, granted});
    return granted;
  }

  [[nodiscard]] MiB preview(const trace::JobRecord& job,
                            const core::SystemState& state) const override {
    return inner_->preview(job, state);
  }

  void cancel(const trace::JobRecord& job, MiB granted) override {
    inner_->cancel(job, granted);
  }

  void feedback(const trace::JobRecord& job,
                const core::Feedback& fb) override {
    inner_->feedback(job, fb);
  }

  void set_ladder(core::CapacityLadder ladder) override {
    Estimator::set_ladder(ladder);
    inner_->set_ladder(std::move(ladder));
  }

 private:
  core::Estimator* inner_;
  std::vector<Entry>* log_;
};

}  // namespace

ServeReplayResult serve_replay(const trace::Workload& workload,
                               const ClusterSpec& cluster_spec,
                               ServeReplayConfig config) {
  ServeReplayResult result;
  std::vector<RecordingEstimator::Entry> offline_log;
  std::vector<RecordingEstimator::Entry> service_log;

  {
    core::SuccessiveApproxConfig sa;
    sa.alpha = config.matchd.alpha;
    sa.beta = config.matchd.beta;
    core::SuccessiveApproximationEstimator offline(
        sa, config.matchd.key_fn ? config.matchd.key_fn
                                 : core::default_similarity_key);
    RecordingEstimator recorder(offline, offline_log);
    auto policy = sched::make_policy(config.policy);
    // The offline reference run stays uninstrumented: feeding the same
    // registry from both runs would double every sim counter.
    SimulationConfig offline_sim = config.sim;
    offline_sim.metrics = nullptr;
    result.offline =
        simulate(workload, cluster_spec, recorder, *policy, offline_sim);
  }

  {
    svc::Matchd service(config.matchd);
    svc::MatchdEstimator adapter(service);
    RecordingEstimator recorder(adapter, service_log);
    auto policy = sched::make_policy(config.policy);
    result.service =
        simulate(workload, cluster_spec, recorder, *policy, config.sim);
    service.drain();
    result.stats = service.stats();
  }

  result.decisions = std::max(offline_log.size(), service_log.size());
  const std::size_t common = std::min(offline_log.size(), service_log.size());
  for (std::size_t i = 0; i < result.decisions; ++i) {
    ReplayDecision d;
    if (i < offline_log.size()) {
      d.job_id = offline_log[i].job_id;
      d.offline_mib = offline_log[i].granted;
    }
    if (i < service_log.size()) {
      if (i >= common) d.job_id = service_log[i].job_id;
      d.service_mib = service_log[i].granted;
    }
    const bool length_mismatch = i >= common;
    const bool job_mismatch =
        !length_mismatch && offline_log[i].job_id != service_log[i].job_id;
    if (length_mismatch || job_mismatch || !d.matches()) {
      ++result.mismatches;
      if (result.first_mismatches.size() < 8) {
        result.first_mismatches.push_back(d);
      }
    }
  }
  return result;
}

namespace {

/// Submit one job and immediately report its outcome — the serial
/// learn-per-job drive both crash_replay runs share. Explicit feedback
/// (actual usage echoed back) so group state converges deterministically.
/// With workers configured, each call round-trips the admission queue and
/// batch-drain worker path via the adapter, so crash_replay also pins the
/// batched pipeline to the same byte-identical decision stream.
MiB drive_job(svc::Matchd& service, const trace::JobRecord& job) {
  MiB granted = 0.0;
  if (service.async_enabled()) {
    svc::MatchdEstimator adapter(service);
    granted = adapter.estimate(job, core::SystemState{});
    core::Feedback fb;
    fb.granted_mib = granted;
    fb.success = job.used_mem_mib <= granted;
    fb.used_mib = job.used_mem_mib;
    fb.resource_failure = !fb.success;
    adapter.feedback(job, fb);
    return granted;
  }
  const svc::MatchDecision decision = service.submit(job);
  granted = decision.granted_mib;
  core::Feedback fb;
  fb.granted_mib = granted;
  fb.success = job.used_mem_mib <= granted;
  fb.used_mib = job.used_mem_mib;
  fb.resource_failure = !fb.success;
  service.feedback(job, fb);
  return granted;
}

}  // namespace

CrashReplayResult crash_replay(const trace::Workload& workload,
                               const ClusterSpec& cluster_spec,
                               CrashReplayConfig config) {
  CrashReplayResult result;
  const core::CapacityLadder ladder = Cluster(cluster_spec).ladder();
  const std::size_t crash_after =
      std::min(config.crash_after, workload.jobs.size());

  // Reference: one uninterrupted, fault-free, WAL-free run.
  std::vector<MiB> reference;
  reference.reserve(workload.jobs.size());
  {
    svc::MatchdConfig cfg = config.matchd;
    cfg.durability = svc::DurabilityConfig{};
    cfg.metrics = nullptr;
    svc::Matchd service(cfg);
    service.set_ladder(ladder);
    for (const trace::JobRecord& job : workload.jobs) {
      reference.push_back(drive_job(service, job));
    }
  }

  // Crashed run: serve, crash mid-stream, recover a fresh instance from
  // the WAL directory, finish the workload there.
  std::vector<MiB> recovered;
  recovered.reserve(workload.jobs.size());
  {
    svc::Matchd service(config.matchd);
    service.set_ladder(ladder);
    for (std::size_t i = 0; i < crash_after; ++i) {
      recovered.push_back(drive_job(service, workload.jobs[i]));
    }
    service.simulate_crash(config.torn_tail);
  }
  {
    svc::Matchd service(config.matchd);
    service.set_ladder(ladder);
    auto recovery = service.recover();
    if (recovery) {
      result.recovery = recovery.value();
    } else {
      result.recovery_error = recovery.error();
    }
    for (std::size_t i = crash_after; i < workload.jobs.size(); ++i) {
      recovered.push_back(drive_job(service, workload.jobs[i]));
    }
    service.drain();
    result.stats = service.stats();
  }

  result.decisions = reference.size();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i] != recovered[i]) {
      ++result.mismatches;
      if (result.first_mismatches.size() < 8) {
        ReplayDecision d;
        d.job_id = workload.jobs[i].id;
        d.offline_mib = reference[i];
        d.service_mib = recovered[i];
        result.first_mismatches.push_back(d);
      }
    }
  }
  return result;
}

}  // namespace resmatch::sim
