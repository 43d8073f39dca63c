// Shard-striped concurrent store of per-group estimator state.
//
// The online matchmaker keeps one state object per similarity group (a
// core::SaGroupState). Concurrency is mutex-per-shard: a group key hashes
// to one of `shards` stripes, and all work on that group happens under
// its stripe's lock. Algorithm 1's transitions are a handful of loads and
// stores, so the critical sections are tens of nanoseconds and throughput
// scales with the shard count, not the worker count (measured in
// bench/micro_service.cpp). Reads take the shard lock too: peek() copies
// the group's state out under it, so a read never sees a half-applied
// transition. Batch callers (matchd's bulk-drain worker loop) use
// with_shard() to apply a whole run of same-shard transitions under a
// single lock acquisition.
//
// The store is bounded: each shard holds at most max_groups/shards entries
// and evicts least-recently-used groups beyond that. Eviction forgets a
// group's learned estimate — the next submission re-enters at the user's
// request, exactly like a first-seen group, so eviction degrades savings
// but never correctness.
//
// Persistence lives outside the store: matchd writes it as WAL frames
// (svc/wal.hpp), walking it with for_each() and refilling it with
// restore().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace resmatch::svc {

struct StoreConfig {
  /// Stripe count; rounded up to a power of two, at least 1.
  std::size_t shards = 16;
  /// Total entry bound across all shards (enforced per shard as
  /// max_groups/shards, so the realized bound is within one entry per
  /// shard of the configured total).
  std::size_t max_groups = 1 << 20;
};

/// Counters of one stripe. Updated with relaxed atomics under the shard
/// lock; readable without it.
struct ShardStats {
  std::uint64_t entries = 0;
  std::uint64_t hits = 0;       ///< with_group found an existing entry
  std::uint64_t misses = 0;     ///< with_group created a fresh entry
  std::uint64_t evictions = 0;  ///< LRU entries dropped at the bound
};

struct StoreStats {
  std::uint64_t entries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::vector<ShardStats> shards;
};

template <typename State>
class EstimatorStore {
 private:
  struct Shard;  // fwd: LockedShard below borrows one locked stripe

 public:
  explicit EstimatorStore(StoreConfig config = {}) {
    std::size_t n = 1;
    while (n < std::max<std::size_t>(config.shards, 1)) n <<= 1;
    // Shard is immovable (mutex + atomics); build the vector at its final
    // size and move-assign the whole container.
    shards_ = std::vector<Shard>(n);
    mask_ = n - 1;
    per_shard_cap_ = std::max<std::size_t>(1, config.max_groups / n);
  }

  EstimatorStore(const EstimatorStore&) = delete;
  EstimatorStore& operator=(const EstimatorStore&) = delete;

  /// Find-or-create the group for `key` and run `fn(State&)` under the
  /// shard lock, returning fn's result. `make()` builds the fresh state on
  /// first sight; creation may evict the shard's least-recently-used
  /// entry. Touches the entry's recency.
  template <typename Make, typename Fn>
  auto with_group(std::uint64_t key, Make&& make, Fn&& fn) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    return with_group_locked(shard, key, std::forward<Make>(make),
                             std::forward<Fn>(fn));
  }

  /// Run `fn(State&)` under the shard lock only if the group exists
  /// (touching its recency). Returns whether it did.
  template <typename Fn>
  bool modify_if_present(std::uint64_t key, Fn&& fn) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    return modify_if_present_locked(shard, key, std::forward<Fn>(fn));
  }

  /// Borrowed view of one locked stripe, handed to with_shard()'s
  /// callback. Same find-or-create / modify semantics (and the same LRU
  /// bookkeeping) as the one-shot calls above, but without re-locking per
  /// group — the batch path applies a whole run of transitions under ONE
  /// lock acquisition. Every key passed MUST hash to the borrowed stripe
  /// (shard_of(key) == the with_shard index).
  class LockedShard {
   public:
    template <typename Make, typename Fn>
    auto with_group(std::uint64_t key, Make&& make, Fn&& fn) {
      return store_->with_group_locked(*shard_, key,
                                       std::forward<Make>(make),
                                       std::forward<Fn>(fn));
    }

    template <typename Fn>
    bool modify_if_present(std::uint64_t key, Fn&& fn) {
      return store_->modify_if_present_locked(*shard_, key,
                                              std::forward<Fn>(fn));
    }

   private:
    friend class EstimatorStore;
    LockedShard(EstimatorStore& store, Shard& shard)
        : store_(&store), shard_(&shard) {}
    EstimatorStore* store_;
    Shard* shard_;
  };

  /// Lock stripe `shard_index` once and run `fn(LockedShard&)` under it.
  /// `fn` must not call back into the store's locking APIs (deadlock).
  template <typename Fn>
  auto with_shard(std::size_t shard_index, Fn&& fn) {
    Shard& shard = shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    LockedShard view(*this, shard);
    return fn(view);
  }

  /// Copy of the group's state if present. Does not touch recency, so
  /// read-mostly previews never perturb eviction order.
  [[nodiscard]] std::optional<State> peek(std::uint64_t key) const {
    const Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return std::nullopt;
    return it->second->second;
  }

  /// Visit every (key, state) pair, one shard lock at a time: shard by
  /// shard, each from least to most recently used, so restore() calls in
  /// this order rebuild every shard's eviction order. `fn` must not call
  /// back into the store (deadlock).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const auto& [key, state] : shard.entries) fn(key, state);
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.entries.size();
    }
    return total;
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Entry bound of one stripe (max_groups / shard_count, at least 1);
  /// the denominator for per-shard occupancy metrics.
  [[nodiscard]] std::size_t per_shard_capacity() const noexcept {
    return per_shard_cap_;
  }

  /// Counters of one stripe, readable concurrently with traffic.
  [[nodiscard]] ShardStats shard_stats(std::size_t index) const {
    const Shard& shard = shards_[index];
    ShardStats s;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      s.entries = shard.entries.size();
    }
    s.hits = shard.hits.load(std::memory_order_relaxed);
    s.misses = shard.misses.load(std::memory_order_relaxed);
    s.evictions = shard.evictions.load(std::memory_order_relaxed);
    return s;
  }

  /// Stripe index of a key (stable for the store's lifetime); lets callers
  /// keep their own per-shard counters aligned with the store's striping.
  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const noexcept {
    return mix(key) & mask_;
  }

  [[nodiscard]] StoreStats stats() const {
    StoreStats out;
    out.shards.reserve(shards_.size());
    for (const Shard& shard : shards_) {
      ShardStats s;
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        s.entries = shard.entries.size();
      }
      s.hits = shard.hits.load(std::memory_order_relaxed);
      s.misses = shard.misses.load(std::memory_order_relaxed);
      s.evictions = shard.evictions.load(std::memory_order_relaxed);
      out.entries += s.entries;
      out.hits += s.hits;
      out.misses += s.misses;
      out.evictions += s.evictions;
      out.shards.push_back(s);
    }
    return out;
  }

  /// Insert-or-overwrite one entry as the shard's most recently used,
  /// the restoration path of snapshot load and WAL replay. The entry
  /// bound still holds (restoring more than fits drops the shard's
  /// oldest entries), but restoration is NOT traffic: it leaves the
  /// hit/miss/eviction counters alone, so a warm restart starts its
  /// hit-rate metrics from zero.
  void restore(std::uint64_t key, State state) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(state);
      shard.entries.splice(shard.entries.end(), shard.entries, it->second);
      return;
    }
    if (shard.entries.size() >= per_shard_cap_) {
      const std::uint64_t evicted = shard.entries.front().first;
      shard.index.erase(evicted);
      shard.entries.pop_front();
    }
    shard.entries.emplace_back(key, std::move(state));
    shard.index.emplace(key, std::prev(shard.entries.end()));
  }

 private:
  /// One stripe: LRU list (front = oldest) + key index + counters, padded
  /// to its own cache lines so neighboring stripes never false-share.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::list<std::pair<std::uint64_t, State>> entries;
    std::unordered_map<std::uint64_t,
                       typename std::list<std::pair<std::uint64_t, State>>::iterator>
        index;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  /// splitmix64 finalizer: similarity keys are themselves hashes, but
  /// their low bits alone are not guaranteed uniform across shards.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  static void bump(std::atomic<std::uint64_t>& counter) noexcept {
    // A real atomic RMW: callers today bump under the shard lock, but a
    // load+store pair would silently drop counts the moment any caller
    // (a metrics reader, a future lock-free path) bumps outside it.
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  /// with_group body shared by the one-shot and LockedShard entry points.
  /// Caller holds the shard mutex.
  template <typename Make, typename Fn>
  auto with_group_locked(Shard& shard, std::uint64_t key, Make&& make,
                         Fn&& fn) {
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      bump(shard.misses);
      if (shard.entries.size() >= per_shard_cap_) {
        // Evict the least-recently-used group of this stripe.
        const std::uint64_t evicted = shard.entries.front().first;
        shard.index.erase(evicted);
        shard.entries.pop_front();
        bump(shard.evictions);
      }
      shard.entries.emplace_back(key, make());
      it = shard.index.emplace(key, std::prev(shard.entries.end())).first;
    } else {
      bump(shard.hits);
      // Touch: move to most-recently-used position. splice keeps the
      // iterator (and the index entry) valid.
      shard.entries.splice(shard.entries.end(), shard.entries, it->second);
    }
    return fn(it->second->second);
  }

  /// modify_if_present body shared by the one-shot and LockedShard entry
  /// points. Caller holds the shard mutex.
  template <typename Fn>
  bool modify_if_present_locked(Shard& shard, std::uint64_t key, Fn&& fn) {
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.entries.splice(shard.entries.end(), shard.entries, it->second);
    fn(it->second->second);
    return true;
  }

  Shard& shard_for(std::uint64_t key) noexcept {
    return shards_[shard_of(key)];
  }
  const Shard& shard_for(std::uint64_t key) const noexcept {
    return shards_[shard_of(key)];
  }

  std::vector<Shard> shards_;
  std::size_t mask_ = 0;
  std::size_t per_shard_cap_ = 1;
};

}  // namespace resmatch::svc
