// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir DIR] [--tiny] [--perturb] [--queue-capacity N]
//             [--git-sha SHA] [--source-digest HEX]
//
// Runs one workload in this process, prints every metric by name with its
// unit (and the sample count of each order statistic), a provenance line,
// and as the last line one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, from untraced runs;
// with --trace 1 they are the per-layer ones, from a traced run (plus an
// untraced run to price the tracing). Exits 1 when a correctness gate
// fails, 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists BENCHMARK.json declares, in its order.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"throughput_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},    {"kill_rate", "fraction"},
    {"overprovision", "ratio"},
};

// Per-layer metrics in the JSON result. Per-call times and latency
// percentiles are printed in the report above it but kept out of the JSON:
// each applies to one workload only, and a time that reads 0 on every run
// of the others would look unmeasured. Their shares of the run stay in.
const MetricSpec kPerLayer[] = {
    {"trace.share", "fraction"},
    {"sched.pick_calls", "count"},
    {"sched.share", "fraction"},
    {"sched.starts_per_pick", "ratio"},
    {"core.estimate_calls", "count"},
    {"core.preview_calls", "count"},
    {"core.feedback_calls", "count"},
    {"core.share", "fraction"},
    {"core.lowered_fraction", "fraction"},
    {"core.attempts_per_job", "ratio"},
    {"core.kills_mem", "count"},
    {"core.kills_cpu", "count"},
    {"core.kills_gpu", "count"},
    {"core.midjob_kills", "count"},
    {"sim.events", "count"},
    {"sim.self_share", "fraction"},
    {"sim.utilization", "fraction"},
    {"sim.bounded_slowdown", "ratio"},
    {"svc.batch_size_mean", "count"},
    {"svc.wal_commits_per_write", "ratio"},
    {"svc.wal_fsyncs_per_write", "ratio"},
    {"svc.wal_bytes_per_write", "B"},
    {"svc.store_hit_ratio", "fraction"},
    {"svc.evictions", "count"},
    {"svc.backpressure_rejects", "count"},
    {"net.bytes_per_request", "B"},
    {"net.protocol_errors", "count"},
    {"net.client_codec_share", "fraction"},
    {"bench.max_in_flight", "count"},
    {"bench.error_rate", "fraction"},
    {"bench.trace_overhead", "fraction"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload sim-stream-fcfs|"
               "sim-mr-backfill|svc-net-mixed --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--tiny] [--perturb] [--queue-capacity N] "
               "[--git-sha SHA] [--source-digest HEX]\n",
               msg);
  return 2;
}

void print_metric(const std::string& name, const Metric& m) {
  if (m.samples > 0) {
    std::printf("  %-28s %.10g %s  (n=%zu)\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  } else {
    std::printf("  %-28s %.10g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  options.work_dir = ".bench_build/run";
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--perturb") {
      options.perturb = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--queue-capacity") {
      options.queue_capacity = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (arg == "--git-sha") {
      git_sha = argv[++i];
    } else if (arg == "--source-digest") {
      source_digest = argv[++i];
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || (trace != 0 && trace != 1) ||
      !(options.seconds > 0.0)) {
    return usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  }
  options.trace = trace == 1;

  WorkloadResult result;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (workload == "sim-stream-fcfs") {
      result = run_sim_stream_fcfs(options);
    } else if (workload == "sim-mr-backfill") {
      result = run_sim_mr_backfill(options);
    } else if (workload == "svc-net-mixed") {
      result = run_svc_net_mixed(options);
    } else {
      return usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              trace);
  std::printf("end-to-end (untraced):\n");
  for (const auto& [name, m] : result.end_to_end) print_metric(name, m);
  std::printf("per-layer and workload-specific%s:\n",
              options.trace ? "" : " (trace 1 adds the traced layers)");
  for (const auto& [name, m] : result.per_layer) print_metric(name, m);

  std::string prov =
      "{\"git_sha\": \"" + json_escape(git_sha) + "\", \"source_digest\": \"" +
      json_escape(source_digest) + "\", \"compiler\": \"" PERFBENCH_CXX_ID
      "\", \"flags\": \"" PERFBENCH_CXX_FLAGS "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
      "\", \"cpu\": \"" + json_escape(cpu_model()) + "\", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"seed\": " + std::to_string(options.seed) + ", \"workload\": \"" +
      workload + "\"";
  for (const auto& [key, value] : result.provenance) {
    prov += ", \"" + key + "\": \"" + json_escape(value) + "\"";
  }
  std::printf("provenance: %s}\n", prov.c_str());

  // The JSON result: exactly the declared metric list of this mode.
  std::string metrics;
  auto emit = [&](const MetricSpec& spec, const MetricMap& map) {
    const auto it = map.find(spec.name);
    double value = it == map.end() ? 0.0 : it->second.value;
    if (it != map.end() && it->second.unit != spec.unit) {
      result.check(false, std::string("unit mismatch for ") + spec.name);
    }
    if (!std::isfinite(value)) {
      result.check(false, std::string("non-finite value for ") + spec.name);
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(spec.name) + "\": {\"value\": " + buf +
               ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, result.per_layer);
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      if (result.end_to_end.count(spec.name) == 0) {
        result.check(false, std::string("missing metric ") + spec.name);
      }
      emit(spec, result.end_to_end);
    }
  }
  for (const std::string& failure : result.failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.failures.empty();
  if (correct) std::printf("all correctness gates passed\n");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(1, result.attempted)),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
