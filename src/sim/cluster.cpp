#include "sim/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

namespace resmatch::sim {

ClusterSpec cm5_heterogeneous(MiB second_pool_mib, std::size_t pool_size) {
  return {{32.0, pool_size}, {second_pool_mib, pool_size}};
}

Cluster::Cluster(ClusterSpec spec, AllocationPolicy policy)
    : spec_(std::move(spec)), policy_(policy) {
  // Merge identical pools and sort ascending so eligibility queries are
  // suffix sums. The merge key is the full capacity vector: two pools
  // with the same memory but different CPU/GPU stay distinct. Legacy
  // specs (cpu == gpu == 0 everywhere) merge and order exactly as before.
  std::vector<PoolSpec> sorted = spec_;
  std::sort(sorted.begin(), sorted.end(),
            [](const PoolSpec& a, const PoolSpec& b) {
              return std::tie(a.capacity, a.cpu, a.gpu) <
                     std::tie(b.capacity, b.cpu, b.gpu);
            });
  for (const auto& p : sorted) {
    if (p.count == 0) continue;
    if (p.capacity <= 0.0) {
      throw std::invalid_argument("pool capacity must be positive");
    }
    const ResourceVector cap(p.capacity, p.cpu, p.gpu);
    if (!pools_.empty() && pools_.back().cap == cap) {
      pools_.back().total += p.count;
      pools_.back().free += p.count;
    } else {
      Pool pool;
      pool.capacity = p.capacity;
      pool.total = p.count;
      pool.free = p.count;
      pool.cap = cap;
      pools_.push_back(pool);
    }
    machines_ += p.count;
  }
  if (pools_.empty()) {
    throw std::invalid_argument("cluster must have at least one machine");
  }
}

core::CapacityLadder Cluster::ladder() const {
  std::vector<MiB> rungs;
  rungs.reserve(pools_.size());
  for (const auto& p : pools_) rungs.push_back(p.capacity);
  return core::CapacityLadder(std::move(rungs));
}

core::CapacityLadder Cluster::ladder_for_dim(std::size_t dim) const {
  std::vector<MiB> rungs;
  rungs.reserve(pools_.size());
  for (const auto& p : pools_) {
    // Memory is always provisioned (constructor rejects capacity <= 0);
    // other dimensions only contribute rungs from pools that have them.
    if (dim == kDimMem || p.cap[dim] > 0.0) rungs.push_back(p.cap[dim]);
  }
  return core::CapacityLadder(std::move(rungs));
}

std::size_t Cluster::eligible_free_vec(const ResourceVector& req,
                                       std::size_t dims) const {
  std::size_t count = 0;
  for (const auto& p : pools_) {
    if (p.cap.covers(req, dims)) count += p.free;
  }
  return count;
}

std::size_t Cluster::eligible_total_vec(const ResourceVector& req,
                                        std::size_t dims) const {
  std::size_t count = 0;
  for (const auto& p : pools_) {
    if (p.cap.covers(req, dims)) count += p.total;
  }
  return count;
}

std::size_t Cluster::eligible_free(const ResourceVector& request) const {
  return eligible_free_vec(request, kMaxResourceDims);
}

template <typename Visit>
void Cluster::walk_allocation_order(Visit&& visit) const {
  if (policy_ == AllocationPolicy::kBestFit) {
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      if (!visit(i)) return;
    }
  } else {
    for (std::size_t i = pools_.size(); i-- > 0;) {
      if (!visit(i)) return;
    }
  }
}

std::size_t Cluster::eligible_free_before(
    const ResourceVector& request, const ResourceVector& reserved) const {
  std::size_t count = 0;
  walk_allocation_order([&](std::size_t i) {
    const Pool& p = pools_[i];
    if (p.free == 0 || !p.cap.covers(request, kMaxResourceDims)) return true;
    if (p.cap.covers(reserved, kMaxResourceDims)) return false;
    count += p.free;
    return true;
  });
  return count;
}

double Cluster::busy_fraction() const noexcept {
  if (machines_ == 0) return busy_ > 0 ? 1.0 : 0.0;
  // Draining machines can push busy above the committed machine count
  // for a while; clamp — "fully busy" is the honest reading.
  return std::min(1.0, static_cast<double>(busy_) /
                           static_cast<double>(machines_));
}

Cluster::Pool& Cluster::find_pool(MiB capacity, const char* caller) {
  Pool* found = nullptr;
  for (auto& pool : pools_) {
    if (std::fabs(pool.capacity - capacity) >= 1e-9) continue;
    if (found != nullptr) {
      throw std::invalid_argument(
          std::string(caller) +
          ": ambiguous capacity class (pools differ only in CPU/GPU)");
    }
    found = &pool;
  }
  if (found == nullptr) {
    throw std::invalid_argument(
        std::string(caller) + ": unknown capacity class (the ladder is fixed)");
  }
  return *found;
}

void Cluster::add_machines(MiB capacity, std::size_t count) {
  Pool& pool = find_pool(capacity, "add_machines");
  pool.total += count;
  pool.free += count;
  machines_ += count;
}

void Cluster::remove_machines(MiB capacity, std::size_t count) {
  Pool& pool = find_pool(capacity, "remove_machines");
  const std::size_t removed = std::min(count, pool.total);
  pool.total -= removed;
  machines_ -= removed;
  const std::size_t from_free = std::min(pool.free, removed);
  pool.free -= from_free;
  // The rest are busy: they leave as their jobs finish.
  pool.draining += removed - from_free;
}

std::size_t Cluster::draining_count() const noexcept {
  std::size_t total = 0;
  for (const auto& pool : pools_) total += pool.draining;
  return total;
}

std::vector<Cluster::PoolSnapshot> Cluster::snapshot() const {
  std::vector<PoolSnapshot> out;
  out.reserve(pools_.size());
  for (const auto& pool : pools_) {
    PoolSnapshot snap;
    snap.capacity = pool.capacity;
    snap.total = pool.total;
    snap.draining = pool.draining;
    // Busy = owned-but-not-free plus drained machines still finishing;
    // the incremental counter must always agree with that derivation.
    assert(pool.busy == pool.total - pool.free + pool.draining);
    snap.busy = pool.busy;
    out.push_back(snap);
  }
  return out;
}

std::optional<Allocation> Cluster::allocate(std::uint32_t nodes,
                                            MiB min_capacity) {
  return allocate_vec(nodes, ResourceVector(min_capacity), 1);
}

std::optional<Allocation> Cluster::allocate_vec(std::uint32_t nodes,
                                                const ResourceVector& req,
                                                std::size_t dims) {
  if (nodes == 0) return std::nullopt;
  if (eligible_free_vec(req, dims) < nodes) return std::nullopt;

  Allocation out;
  out.nodes = nodes;
  out.min_capacity = 0.0;
  std::size_t remaining = nodes;

  auto take_from = [&](std::size_t pool_index) {
    Pool& p = pools_[pool_index];
    if (!p.cap.covers(req, dims) || p.free == 0) return;
    const std::size_t take = std::min(p.free, remaining);
    if (take == 0) return;
    p.free -= take;
    p.busy += take;
    remaining -= take;
    out.pool_counts.emplace_back(pool_index, take);
    out.min_capacity = out.min_capacity == 0.0
                           ? p.capacity
                           : std::min(out.min_capacity, p.capacity);
  };

  walk_allocation_order([&](std::size_t i) {
    take_from(i);
    return remaining > 0;
  });
  assert(remaining == 0);
  busy_ += nodes;
  return out;
}

void Cluster::release(const Allocation& allocation) {
  for (const auto& [pool_index, count] : allocation.pool_counts) {
    assert(pool_index < pools_.size());
    Pool& p = pools_[pool_index];
    // Machines owed to a removal depart instead of becoming free.
    const std::size_t departing = std::min(p.draining, count);
    p.draining -= departing;
    p.free += count - departing;
    assert(p.busy >= count);
    p.busy -= count;
    assert(p.free <= p.total);
  }
  assert(busy_ >= allocation.nodes);
  busy_ -= allocation.nodes;
}

}  // namespace resmatch::sim
