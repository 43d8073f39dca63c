// Shared plumbing for the benchmark: metric records, exact order
// statistics, result digests and process-level measurements.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// One reported number. `samples` is the count an order statistic was
/// taken over (0 when the value is not an order statistic).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Metrics by name, as one workload run reports them.
using MetricMap = std::map<std::string, Metric>;

/// What one workload run hands back to main().
struct WorkloadResult {
  /// Human-readable failed gates; empty when every gate passed.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;  ///< operations issued (jobs or requests)
  std::uint64_t failed = 0;     ///< operations dropped, refused or lost
  MetricMap end_to_end;         ///< from untraced runs
  MetricMap per_layer;          ///< from traced runs (trace mode only)
  /// Workload-specific provenance lines (e.g. the svc offered rate).
  std::map<std::string, std::string> provenance;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Seconds-scale inputs for the benchmark's own tests.
  bool tiny = false;
  /// Test hook: the traced estimator wrapper alters some grants, which the
  /// digest gate must catch.
  bool perturb = false;
  /// Matchd admission-queue capacity of svc-net-mixed. A test sets it low
  /// to force backpressure, which the refusal gate must catch.
  std::size_t queue_capacity = 8192;
  /// Directory for run files (WAL, sockets, span dumps); created by main.
  std::string work_dir;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in seconds. Unlike wall time it leaves
/// out the time the thread waits for a core (preemption, and steal time
/// on a VM that accounts it), which is most of the run-to-run spread of a
/// single-threaded simulation.
[[nodiscard]] inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Percentile (p in [0, 100]) of a registry histogram, in microseconds; 0
/// when the series is absent. Bucket-interpolated, so coarse.
[[nodiscard]] inline double registry_quantile_us(
    const resmatch::obs::MetricsSnapshot& snap, const std::string& name,
    double p) {
  const resmatch::obs::MetricSample* s = snap.find(name);
  return s == nullptr ? 0.0 : s->histogram.percentile(p) * 1e6;
}

/// Median of the values (mean of the middle two for even counts); 0 for
/// an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]) over exact samples, sorting in
/// place; 0 for an empty input.
[[nodiscard]] double percentile(std::vector<double>& values, double p);

/// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mib();

/// FNV-1a over the bytes of every value fed in; doubles by bit pattern, so
/// two digests agree only when every result field is bitwise equal.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Set-up time: `setup` runs at least 5 times and for at least a second
/// (at most 50 times), and the median wall time is reported. Each call
/// must build everything from scratch; the caller keeps the last result
/// through the closure.
template <typename F>
[[nodiscard]] Metric median_setup_seconds(F&& setup) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < 5 ||
         (seconds_since(start) < 1.0 && times.size() < 50)) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return {median(times), "s", times.size()};
}

}  // namespace perfbench
