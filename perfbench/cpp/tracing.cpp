#include "tracing.hpp"

#include <cstdio>

#include "report.hpp"

namespace perfbench {

namespace {

/// Times one call into a layer and records it on scope exit.
class Scoped {
 public:
  Scoped(SpanLog& log, Layer layer) : log_(log), layer_(layer), t0_(now_ns()) {}
  ~Scoped() { log_.record(layer_, t0_, now_ns()); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  Layer layer_;
  std::int64_t t0_;
};

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kSimRun: return "sim.run";
    case Layer::kTraceNext: return "trace.next";
    case Layer::kSchedPick: return "sched.pick";
    case Layer::kCoreEstimate: return "core.estimate";
    case Layer::kCorePreview: return "core.preview";
    case Layer::kCoreFeedback: return "core.feedback";
    case Layer::kCoreCancel: return "core.cancel";
    case Layer::kClientRequest: return "client.request";
    case Layer::kClientCodec: return "client.codec";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanLog::record(Layer layer, std::int64_t start_ns, std::int64_t end_ns) {
  Totals& t = totals_[static_cast<std::size_t>(layer)];
  ++t.calls;
  t.ns += static_cast<std::uint64_t>(end_ns - start_ns);
  const std::uint64_t id = ++next_id_;
  if (id % sample_every_ == 0) {
    spans_.push_back({id, current_root_, layer, start_ns, end_ns});
  }
}

void SpanLog::end_root(Layer layer, std::int64_t start_ns,
                       std::int64_t end_ns) {
  Totals& t = totals_[static_cast<std::size_t>(layer)];
  ++t.calls;
  t.ns += static_cast<std::uint64_t>(end_ns - start_ns);
  spans_.push_back({current_root_, 0, layer, start_ns, end_ns});
  current_root_ = 0;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 layer_name(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::optional<resmatch::trace::JobRecord> TracingStream::next() {
  Scoped span(*log_, Layer::kTraceNext);
  return inner_->next();
}

std::optional<std::size_t> TracingPolicy::pick_next(
    const std::deque<resmatch::sched::QueuedJob>& queue,
    const resmatch::sched::ClusterView& cluster,
    const std::vector<resmatch::sched::RunningJobInfo>& running,
    resmatch::Seconds now) {
  Scoped span(*log_, Layer::kSchedPick);
  auto pick = inner_->pick_next(queue, cluster, running, now);
  if (pick) log_->count_start();
  return pick;
}

resmatch::MiB TracingEstimator::estimate(
    const resmatch::trace::JobRecord& job,
    const resmatch::core::SystemState& state) {
  Scoped span(*log_, Layer::kCoreEstimate);
  const resmatch::MiB granted = inner_->estimate(job, state);
  ++estimates_;
  if (perturb_ && estimates_ >= 64 && estimates_ % 16 == 0) {
    return ladder().round_up(job.requested_mem_mib);
  }
  return granted;
}

resmatch::MiB TracingEstimator::preview(
    const resmatch::trace::JobRecord& job,
    const resmatch::core::SystemState& state) const {
  Scoped span(*log_, Layer::kCorePreview);
  return inner_->preview(job, state);
}

void TracingEstimator::cancel(const resmatch::trace::JobRecord& job,
                              resmatch::MiB granted) {
  Scoped span(*log_, Layer::kCoreCancel);
  inner_->cancel(job, granted);
}

void TracingEstimator::feedback(const resmatch::trace::JobRecord& job,
                                const resmatch::core::Feedback& fb) {
  Scoped span(*log_, Layer::kCoreFeedback);
  inner_->feedback(job, fb);
}

void TracingEstimator::set_ladder(resmatch::core::CapacityLadder ladder) {
  inner_->set_ladder(ladder);
  Estimator::set_ladder(std::move(ladder));
}

}  // namespace perfbench
