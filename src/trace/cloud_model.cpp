#include "trace/cloud_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace resmatch::trace {

namespace {

struct CloudGroup {
  UserId user = 0;
  AppId app = 0;
  ResourceVector requested{};
  ResourceVector used_base{};  ///< group-typical peak, jittered per job
  std::uint32_t nodes = 1;
  double runtime_log_mean = 5.5;
  FootprintProfile profile{};
};

double draw_ratio(util::Rng& rng, const CloudModelConfig& cfg) {
  if (rng.bernoulli(cfg.frac_ratio_ge2)) {
    return std::min(cfg.max_ratio, 2.0 * rng.pareto(1.0, cfg.pareto_alpha));
  }
  return rng.uniform(1.0, 2.0);
}

FootprintProfile draw_profile(util::Rng& rng,
                              const std::vector<double>& shape_weights) {
  FootprintProfile profile;
  switch (rng.weighted_index(shape_weights)) {
    case 0:
      profile.shape = FootprintShape::kFlat;
      break;
    case 1:
      profile.shape = FootprintShape::kRamp;
      break;
    case 2:
      profile.shape = FootprintShape::kStep;
      break;
    default:
      profile.shape = FootprintShape::kPlateau;
      break;
  }
  profile.start_frac = rng.uniform(0.2, 0.7);
  profile.knee_frac = rng.uniform(0.2, 0.8);
  return profile;
}

}  // namespace

ScenarioWorkload generate_cloud(const CloudModelConfig& cfg) {
  if (cfg.job_count == 0 || cfg.group_count == 0 || cfg.user_count == 0) {
    throw std::invalid_argument("generate_cloud: empty population");
  }
  util::Rng rng(cfg.seed);
  // The two output arrays are allocated before the group tables, which
  // die with this call. A caller that frees one trace and generates the
  // next (perfbench's repeat loop) then gets the freed block back for
  // them; allocated after the temporaries, they can miss it by a few KiB
  // and grow the heap by a whole array.
  ScenarioWorkload out;
  out.dims = kMaxResourceDims;
  out.base.name = "cloud-diurnal";
  out.base.jobs.reserve(cfg.job_count);
  out.mr.reserve(cfg.job_count);

  // --- group population ----------------------------------------------------
  std::vector<CloudGroup> groups;
  groups.reserve(cfg.group_count);
  for (std::size_t g = 0; g < cfg.group_count; ++g) {
    CloudGroup group;
    group.user = static_cast<UserId>(
        rng.uniform_int(0, static_cast<std::int64_t>(cfg.user_count) - 1));
    group.app = static_cast<AppId>(g);
    group.requested[kDimMem] =
        cfg.request_mib_values[rng.weighted_index(cfg.request_mib_weights)];
    group.requested[kDimCpu] =
        cfg.request_cpu_values[rng.weighted_index(cfg.request_cpu_weights)];
    group.requested[kDimGpu] =
        cfg.request_gpu_values[rng.weighted_index(cfg.request_gpu_weights)];
    group.nodes = static_cast<std::uint32_t>(
        cfg.node_counts[rng.weighted_index(cfg.node_weights)]);
    group.runtime_log_mean =
        rng.normal(cfg.runtime_log_mean, cfg.runtime_log_sigma);
    for (std::size_t d = 0; d < kMaxResourceDims; ++d) {
      const double ratio = draw_ratio(rng, cfg);
      group.used_base[d] =
          group.requested[d] > 0.0 ? group.requested[d] / ratio : 0.0;
    }
    group.profile = draw_profile(rng, cfg.shape_weights);
    groups.push_back(group);
  }

  util::ZipfDistribution popularity(cfg.group_count,
                                    cfg.group_popularity_exponent);

  // --- emission: monotone clock, diurnal-modulated Poisson gaps ------------
  const double amplitude = std::clamp(cfg.diurnal_amplitude, 0.0, 0.95);
  Seconds clock = 0.0;
  for (std::size_t j = 0; j < cfg.job_count; ++j) {
    const double phase = 2.0 * M_PI * clock / cfg.diurnal_period;
    const double rate_factor = 1.0 + amplitude * std::sin(phase);
    clock += rng.exponential(rate_factor / cfg.mean_interarrival);

    const CloudGroup& group = groups[popularity(rng) - 1];

    JobRecord record;
    record.id = static_cast<JobId>(j + 1);
    record.submit = clock;
    record.runtime = std::clamp(
        rng.lognormal(group.runtime_log_mean, 0.3), cfg.runtime_min,
        cfg.runtime_max);
    record.requested_time = record.runtime * rng.uniform(1.0, 3.0);
    record.nodes = group.nodes;
    record.user = group.user;
    record.app = group.app;
    record.status = rng.bernoulli(cfg.intrinsic_failure_fraction)
                        ? JobStatus::kFailed
                        : JobStatus::kCompleted;

    MrJobInfo info;
    info.requested = group.requested;
    info.profile = group.profile;
    for (std::size_t d = 0; d < kMaxResourceDims; ++d) {
      const double jitter = rng.lognormal(0.0, cfg.within_group_jitter);
      info.used_peak[d] = group.requested[d] > 0.0
                              ? std::clamp(group.used_base[d] * jitter,
                                           group.requested[d] * 0.01,
                                           group.requested[d])
                              : 0.0;
    }
    record.requested_mem_mib = info.requested[kDimMem];
    record.used_mem_mib = info.used_peak[kDimMem];

    out.base.jobs.push_back(record);
    out.mr.push_back(info);
  }
  return out;
}

}  // namespace resmatch::trace
