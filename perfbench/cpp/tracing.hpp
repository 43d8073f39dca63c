// Benchmark-side tracing: wrappers around the public layer interfaces
// (trace::JobStream, sched::SchedulingPolicy, core::Estimator) that time
// every call into the layer and record spans.
//
// Per-layer totals (calls and nanoseconds) are exact. Spans — name, start,
// end, parent — are sampled 1-in-N into memory and written out once the
// run ends, so the traced run never does I/O on the hot path. Root spans
// (one per simulate() call or client request) are parents of the layer
// spans opened while they are current.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "sched/policy.hpp"
#include "trace/job_stream.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSimRun,
  kTraceNext,
  kSchedPick,
  kCoreEstimate,
  kCorePreview,
  kCoreFeedback,
  kCoreCancel,
  kClientRequest,
  kClientCodec,
  kCount
};

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

class SpanLog {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = no parent
    Layer layer = Layer::kSimRun;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Keep one layer span in `sample_every`; root spans are always kept.
  explicit SpanLog(std::uint64_t sample_every = 64)
      : sample_every_(sample_every) {}

  /// Record a finished span. Roots become the parent of later spans until
  /// end_root().
  void record(Layer layer, std::int64_t start_ns, std::int64_t end_ns);
  void begin_root() { current_root_ = ++next_id_; }
  void end_root(Layer layer, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Policy picks that started a job (counted where the pick returns).
  void count_start() noexcept { ++starts_; }
  [[nodiscard]] std::uint64_t starts() const noexcept { return starts_; }

  /// Write the sampled spans as TSV (id, parent, name, start_ns, end_ns).
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::uint64_t sample_every_;
  std::uint64_t next_id_ = 0;
  std::uint64_t current_root_ = 0;
  std::uint64_t starts_ = 0;
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::vector<Span> spans_;
};

/// Times every JobStream::next() into Layer::kTraceNext.
class TracingStream final : public resmatch::trace::JobStream {
 public:
  TracingStream(resmatch::trace::JobStream& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  [[nodiscard]] std::optional<resmatch::trace::JobRecord> next() override;
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::size_t size_hint() const override {
    return inner_->size_hint();
  }
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }

 private:
  resmatch::trace::JobStream* inner_;
  SpanLog* log_;
};

/// Times every pick_next() into Layer::kSchedPick and counts the picks
/// that started a job.
class TracingPolicy final : public resmatch::sched::SchedulingPolicy {
 public:
  TracingPolicy(resmatch::sched::SchedulingPolicy& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::optional<std::size_t> pick_next(
      const std::deque<resmatch::sched::QueuedJob>& queue,
      const resmatch::sched::ClusterView& cluster,
      const std::vector<resmatch::sched::RunningJobInfo>& running,
      resmatch::Seconds now) override;

 private:
  resmatch::sched::SchedulingPolicy* inner_;
  SpanLog* log_;
};

/// Times every estimator call into the kCore* layers. With `perturb` set
/// (a test hook) every 16th estimate from the 64th on grants the rounded
/// raw request instead, which must change the run's result digest.
class TracingEstimator final : public resmatch::core::Estimator {
 public:
  TracingEstimator(resmatch::core::Estimator& inner, SpanLog& log,
                   bool perturb = false)
      : inner_(&inner), log_(&log), perturb_(perturb) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] resmatch::MiB estimate(
      const resmatch::trace::JobRecord& job,
      const resmatch::core::SystemState& state) override;
  [[nodiscard]] resmatch::MiB preview(
      const resmatch::trace::JobRecord& job,
      const resmatch::core::SystemState& state) const override;
  [[nodiscard]] std::optional<std::uint64_t> preview_epoch(
      const resmatch::trace::JobRecord& job) const override {
    return inner_->preview_epoch(job);
  }
  void cancel(const resmatch::trace::JobRecord& job,
              resmatch::MiB granted) override;
  void feedback(const resmatch::trace::JobRecord& job,
                const resmatch::core::Feedback& fb) override;
  void set_ladder(resmatch::core::CapacityLadder ladder) override;

 private:
  resmatch::core::Estimator* inner_;
  SpanLog* log_;
  bool perturb_;
  std::uint64_t estimates_ = 0;
};

}  // namespace perfbench
