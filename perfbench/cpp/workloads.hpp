// The benchmark's workloads. Each builds its inputs from the seed, times
// calls into the resmatch libraries, checks the outputs, and reports
// end-to-end metrics (untraced) plus, in trace mode, per-layer metrics
// from a separate traced run. README.md in this directory says why each
// workload exists and which metric each layer should move.
#pragma once

#include "report.hpp"

namespace perfbench {

/// sim::simulate over a streamed CM5 trace at cluster scale: FCFS,
/// successive approximation, explicit feedback.
[[nodiscard]] WorkloadResult run_sim_stream_fcfs(const RunOptions& options);

/// sim::simulate_mr at dims=3 on the cloud-diurnal scenario with EASY
/// backfill and per-dimension successive approximation.
[[nodiscard]] WorkloadResult run_sim_mr_backfill(const RunOptions& options);

/// One net::Server over a Unix socket in front of a WAL-backed
/// svc::Matchd, driven by an open-loop client.
[[nodiscard]] WorkloadResult run_svc_net_mixed(const RunOptions& options);

}  // namespace perfbench
