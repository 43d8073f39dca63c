// Heterogeneous cluster model.
//
// Machines are grouped into pools of identical per-node memory capacity
// (the paper's clusters are two pools: 512 machines with 32 MiB and 512
// with a smaller size). Space sharing, no preemption: a machine runs one
// job process at a time. Because machines within a pool are
// indistinguishable, allocation bookkeeping is per-pool counters — O(#pools)
// per operation regardless of machine count.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/capacity_ladder.hpp"
#include "sched/policy.hpp"
#include "util/resource_vector.hpp"
#include "util/small_vector.hpp"
#include "util/types.hpp"

namespace resmatch::sim {

/// One homogeneous pool in a cluster specification. `cpu`/`gpu` describe
/// the per-node core and accelerator counts for multi-resource packing;
/// legacy single-dimension specs leave them 0 and behave exactly as
/// before (every vector query with dims == 1 reads only `capacity`).
struct PoolSpec {
  MiB capacity = 0.0;
  std::size_t count = 0;
  double cpu = 0.0;
  double gpu = 0.0;
};

using ClusterSpec = std::vector<PoolSpec>;

/// The paper's experimental cluster (§3): 512 machines with 32 MiB plus
/// 512 machines with `second_pool_mib` (24 MiB in Figures 5-6, swept
/// 1..32 MiB in Figure 8).
[[nodiscard]] ClusterSpec cm5_heterogeneous(MiB second_pool_mib,
                                            std::size_t pool_size = 512);

/// Which machines the allocator prefers among those that qualify.
enum class AllocationPolicy {
  kBestFit,   ///< smallest adequate capacity first (preserves big machines)
  kWorstFit,  ///< largest capacity first
};

/// One pool's share of a placement (trivially copyable, unlike
/// std::pair, so it qualifies for SmallVector inline storage).
struct PoolTake {
  std::size_t pool_index = 0;
  std::size_t count = 0;
};

/// A successful placement: machine counts taken from each pool.
struct Allocation {
  /// Machines taken per pool; empty means "not allocated". Inline
  /// storage: placements span at most a handful of capacity classes, so
  /// job starts/stops stay off the heap.
  util::SmallVector<PoolTake, 4> pool_counts;
  MiB min_capacity = 0.0;  ///< smallest machine capacity in the allocation
  std::uint32_t nodes = 0;

  [[nodiscard]] bool valid() const noexcept { return !pool_counts.empty(); }
};

class Cluster final : public sched::ClusterView {
 public:
  explicit Cluster(ClusterSpec spec,
                   AllocationPolicy policy = AllocationPolicy::kBestFit);

  /// Capacity rungs for Algorithm 1's rounding step.
  [[nodiscard]] core::CapacityLadder ladder() const;

  /// Capacity rungs of one resource dimension. Dimension 0 (memory) is
  /// exactly ladder(); higher dimensions skip pools that do not provision
  /// the resource (capacity 0), so a GPU-less pool adds no GPU rung.
  [[nodiscard]] core::CapacityLadder ladder_for_dim(std::size_t dim) const;

  // sched::ClusterView, on every dimension (requests carry zeros beyond
  // the dimensions a run packs):
  [[nodiscard]] std::size_t eligible_free(
      const ResourceVector& request) const override;
  [[nodiscard]] std::size_t eligible_free_before(
      const ResourceVector& request,
      const ResourceVector& reserved) const override;

  /// Total machine count (machines draining out are no longer counted).
  [[nodiscard]] std::size_t machine_count() const noexcept {
    return machines_;
  }

  [[nodiscard]] std::size_t busy_count() const noexcept { return busy_; }
  [[nodiscard]] double busy_fraction() const noexcept;

  /// Take `nodes` machines, each with capacity >= min_capacity, following
  /// the fit policy: allocate_vec on memory alone. All-or-nothing;
  /// nullopt when not enough machines.
  [[nodiscard]] std::optional<Allocation> allocate(std::uint32_t nodes,
                                                   MiB min_capacity);

  // --- vector (multi-resource) queries ------------------------------------
  //
  // Component-wise eligibility: a pool qualifies when its capacity vector
  // covers `req` in the first `dims` dimensions. With dims == 1 only
  // memory is compared, which is what the dims=1 equivalence gate in
  // tests/mr_equiv_test.cpp pins.

  /// Free machines whose capacity vector covers `req` (first `dims` dims).
  [[nodiscard]] std::size_t eligible_free_vec(const ResourceVector& req,
                                              std::size_t dims) const;

  /// All machines (post-drain) whose capacity vector covers `req`.
  [[nodiscard]] std::size_t eligible_total_vec(const ResourceVector& req,
                                               std::size_t dims) const;

  /// Vector allocate: take `nodes` machines each covering `req` in the
  /// first `dims` dimensions, best/worst-fit by memory capacity (pool
  /// order). Release with the ordinary release().
  [[nodiscard]] std::optional<Allocation> allocate_vec(
      std::uint32_t nodes, const ResourceVector& req, std::size_t dims);

  /// Per-node capacity vector of pool `i` (memory, CPU, GPU).
  [[nodiscard]] ResourceVector pool_capacity_vec(std::size_t i) const noexcept {
    return pools_[i].cap;
  }

  /// Return an allocation's machines. Must match a prior allocate().
  /// Machines owed to a pending removal leave the cluster instead of
  /// becoming free again.
  void release(const Allocation& allocation);

  // --- dynamic availability (paper §1: machines join and leave) ----------

  /// Add `count` machines of an EXISTING capacity class (the capacity
  /// ladder is fixed for the cluster's lifetime so estimators stay
  /// consistent). Throws std::invalid_argument for unknown capacities and
  /// for capacities shared by pools that differ in CPU/GPU (ambiguous).
  void add_machines(MiB capacity, std::size_t count);

  /// Remove `count` machines of a capacity class. Free machines leave
  /// immediately; busy ones drain — they depart as their jobs release
  /// them. Totals (and thus schedulability) drop immediately. Throws for
  /// unknown or ambiguous capacities, as add_machines does; removing more
  /// than the class holds clamps to "remove them all".
  void remove_machines(MiB capacity, std::size_t count);

  /// Machines that have been removed but are still running jobs.
  [[nodiscard]] std::size_t draining_count() const noexcept;

  /// Point-in-time view of one capacity class.
  struct PoolSnapshot {
    MiB capacity = 0.0;
    std::size_t total = 0;     ///< machines that will remain after drains
    std::size_t busy = 0;      ///< includes draining machines running jobs
    std::size_t draining = 0;  ///< removed machines still running jobs

    /// Machines physically present right now.
    [[nodiscard]] std::size_t present() const noexcept {
      return total + draining;
    }
  };

  /// Snapshot of all capacity classes, ascending by capacity.
  [[nodiscard]] std::vector<PoolSnapshot> snapshot() const;

  // --- allocation-free per-pool counters (simulator hot path) ------------

  /// Live counters of one capacity class, maintained incrementally by
  /// allocate()/release()/add_machines()/remove_machines(). Identical to
  /// the numbers snapshot() derives, but reading them allocates nothing —
  /// the simulator's per-event pool integration depends on that.
  struct PoolCounters {
    MiB capacity = 0.0;
    std::size_t busy = 0;     ///< machines running jobs (incl. draining)
    std::size_t present = 0;  ///< machines physically present (total + draining)
  };

  /// Number of capacity classes (stable for the cluster's lifetime;
  /// ascending capacity, same order as snapshot()).
  [[nodiscard]] std::size_t pool_count() const noexcept {
    return pools_.size();
  }

  /// O(1), allocation-free read of pool `i`'s counters.
  [[nodiscard]] PoolCounters pool_counters(std::size_t i) const noexcept {
    const Pool& p = pools_[i];
    return {p.capacity, p.busy, p.total + p.draining};
  }

  [[nodiscard]] const std::vector<PoolSpec>& spec() const noexcept {
    return spec_;
  }

 private:
  struct Pool {
    MiB capacity = 0.0;
    std::size_t total = 0;     ///< machines that will remain after drains
    std::size_t free = 0;
    std::size_t draining = 0;  ///< busy machines owed to a removal
    /// Machines currently running jobs (== total - free + draining, kept
    /// explicitly so per-event reads never re-derive or allocate).
    std::size_t busy = 0;
    /// Full per-node capacity vector; cap[kDimMem] == capacity.
    ResourceVector cap{};
  };

  /// Calls `visit(pool_index)` for each pool in the order the allocator
  /// takes from them (ascending capacity under best-fit, descending under
  /// worst-fit) until `visit` returns false.
  template <typename Visit>
  void walk_allocation_order(Visit&& visit) const;

  /// The one pool of memory capacity `capacity`. Throws
  /// std::invalid_argument (prefixed with `caller`) when no pool or more
  /// than one pool (same memory, different CPU/GPU) has it.
  Pool& find_pool(MiB capacity, const char* caller);

  ClusterSpec spec_;
  std::vector<Pool> pools_;  // ascending capacity
  AllocationPolicy policy_;
  std::size_t machines_ = 0;
  std::size_t busy_ = 0;
};

}  // namespace resmatch::sim
