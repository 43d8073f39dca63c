#include "sched/policy.hpp"

namespace resmatch::sched {

bool fits_now(const QueuedJob& job, const ClusterView& cluster) {
  return cluster.eligible_free(job.preview) >= job.nodes;
}

}  // namespace resmatch::sched
