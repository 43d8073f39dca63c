// Shard-striped concurrent store of per-group estimator state.
//
// The online matchmaker keeps one state object per similarity group (a
// core::SaGroupState or core::LiGroupState — anything with the
// to_fields/from_fields/kKind snapshot codec). Concurrency is mutex-per-
// shard: a group key hashes to one of `shards` stripes, and all work on
// that group happens under its stripe's lock. Algorithm 1's transitions
// are a handful of loads and stores, so the critical sections are tens of
// nanoseconds and throughput scales with the shard count, not the worker
// count (measured in bench/micro_service.cpp). Reads take the shard lock
// too: peek() copies the group's state out under it, so a read never sees
// a half-applied transition. Batch callers (matchd's bulk-drain worker
// loop) use with_shard() to apply a whole run of same-shard transitions
// under a single lock acquisition.
//
// The store is bounded: each shard holds at most max_groups/shards entries
// and evicts least-recently-used groups beyond that. Eviction forgets a
// group's learned estimate — the next submission re-enters at the user's
// request, exactly like a first-seen group, so eviction degrades savings
// but never correctness.
//
// Snapshot/restore writes a versioned CSV (header line carries format
// version and state kind) so a restarted service re-enters operation warm,
// the same motivation as the paper's §2.2 offline training phase.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <fstream>
#include <list>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/expected.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace resmatch::svc {

struct StoreConfig {
  /// Stripe count; rounded up to a power of two, at least 1.
  std::size_t shards = 16;
  /// Total entry bound across all shards (enforced per shard as
  /// max_groups/shards, so the realized bound is within one entry per
  /// shard of the configured total).
  std::size_t max_groups = 1 << 20;
  /// Deterministic fault injection for snapshot I/O (save/load/rename).
  /// Null = disabled; the paths then pay one null test each.
  util::FaultInjector* faults = nullptr;
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

/// File format identity; version bumps when the row schema changes.
inline constexpr const char* kStoreMagic = "resmatch-estimator-store";
inline constexpr int kStoreVersion = 1;

template <typename State>
class EstimatorStore {
 private:
  struct Shard;  // fwd: LockedShard below borrows one locked stripe

 public:
  explicit EstimatorStore(StoreConfig config = {}) : config_(config) {
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

  /// Visit every (key, state) pair, one shard lock at a time. `fn` must
  /// not call back into the store (deadlock).
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

  // --- snapshot / restore --------------------------------------------------

  /// Write every entry as versioned CSV: a header line identifying format,
  /// version and state kind, then one `key,field...` row per group in
  /// least-to-most recently used order per shard (so a restore reproduces
  /// each shard's eviction order). When `model` is non-null, a final
  /// `model,field...` row carries the learned-model blob (the literal
  /// first cell can never collide with an integer group key).
  void save(std::ostream& out,
            const std::vector<double>* model = nullptr) const {
    out << kStoreMagic << ',' << kStoreVersion << ',' << State::kKind << '\n';
    char buf[32];
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const auto& [key, state] : shard.entries) {
        out << key;
        for (const double field : state.to_fields()) {
          std::snprintf(buf, sizeof(buf), "%.17g", field);
          out << ',' << buf;
        }
        out << '\n';
      }
    }
    if (model != nullptr) {
      out << "model";
      for (const double field : *model) {
        std::snprintf(buf, sizeof(buf), "%.17g", field);
        out << ',' << buf;
      }
      out << '\n';
    }
  }

  /// Crash-safe snapshot: writes to `path + ".tmp"` in the same directory
  /// and atomically renames over the target, so a crash (or any failure)
  /// mid-save leaves the previous snapshot intact — never a truncated or
  /// missing file. Single-writer: concurrent save_file calls on the same
  /// path would share the temp name.
  [[nodiscard]] bool save_file(const std::string& path,
                               const std::vector<double>* model = nullptr) const {
    if (util::fault(config_.faults, util::FaultSite::kStoreWrite)) {
      return false;  // injected: writer failed before touching the disk
    }
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) return false;
      save(out, model);
      out.flush();
      if (!out) {
        std::remove(tmp.c_str());
        return false;
      }
    }
    if (util::fault(config_.faults, util::FaultSite::kSnapshotRename) ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
      // Injected or real rename failure: the previous snapshot is intact
      // by construction; drop the orphaned temp file.
      std::remove(tmp.c_str());
      return false;
    }
    return true;
  }

  /// Restore entries from a snapshot. The entry bound still holds (a
  /// snapshot larger than the configured bound drops each shard's oldest
  /// rows), but restoration is NOT traffic: it does not touch the
  /// hit/miss/eviction counters, so a warm restart starts its hit-rate
  /// metrics from zero instead of reporting one spurious miss per
  /// restored group. Returns the number of group rows read, or a parse
  /// error. When `model` is non-null and the snapshot carries a
  /// `model,...` row, its fields are copied there (left untouched
  /// otherwise — old snapshots simply lack the row); a model row in a
  /// snapshot read without a `model` out-param is still parsed, then
  /// skipped.
  [[nodiscard]] util::Expected<std::size_t> load(
      std::istream& in, std::vector<double>* model = nullptr) {
    std::string line;
    if (!std::getline(in, line)) {
      return util::Expected<std::size_t>::failure("empty snapshot");
    }
    if (in.eof()) {
      // save() writes '\n' after the header; a header ending at EOF means
      // the snapshot was cut before its first row.
      return util::Expected<std::size_t>::failure(
          "truncated snapshot header: " + line);
    }
    std::istringstream header(line);
    std::string magic, kind;
    int version = 0;
    if (!std::getline(header, magic, ',') || magic != kStoreMagic) {
      return util::Expected<std::size_t>::failure(
          "not an estimator-store snapshot");
    }
    if (!(header >> version) || version != kStoreVersion) {
      return util::Expected<std::size_t>::failure(
          "unsupported snapshot version: " + line);
    }
    header.ignore(1, ',');
    if (!std::getline(header, kind) || kind != State::kKind) {
      return util::Expected<std::size_t>::failure(
          "snapshot holds '" + kind + "' state, store expects '" +
          State::kKind + "'");
    }

    std::size_t restored = 0;
    while (std::getline(in, line)) {
      // save() terminates every row with '\n'. A final line that ends at
      // EOF instead was cut mid-write (a crash or a partial copy): its
      // last field may be silently chopped to a shorter, still-parseable
      // number, so it must be rejected, not trusted. Callers with a WAL
      // recover the lost rows by replay (svc::Matchd::recover).
      if (in.eof()) {
        return util::Expected<std::size_t>::failure(
            "truncated trailing row (no newline): " + line);
      }
      if (line.empty()) continue;
      // Every cell must parse in full: "16x" or "7junk" is a corrupt row,
      // not a number with trailing noise to drop.
      const std::vector<std::string_view> cells = util::split(line, ',');
      const bool model_row = cells.front() == "model";
      std::uint64_t key = 0;
      if (!model_row) {
        const std::string_view cell = cells.front();
        const char* end = cell.data() + cell.size();
        const auto [ptr, ec] = std::from_chars(cell.data(), end, key);
        if (ec != std::errc{} || ptr != end) {
          return util::Expected<std::size_t>::failure("bad key: " + line);
        }
      }
      std::vector<double> fields;
      for (std::size_t i = 1; i < cells.size(); ++i) {
        const auto field = util::parse_double(cells[i]);
        if (!field) {
          return util::Expected<std::size_t>::failure("bad field: " + line);
        }
        fields.push_back(*field);
      }
      if (model_row) {
        if (model != nullptr) *model = std::move(fields);
        continue;  // not a group row; not counted in `restored`
      }
      auto state = State::from_fields(fields);
      if (!state) {
        return util::Expected<std::size_t>::failure("invalid state: " + line);
      }
      restore_entry(key, std::move(*state));
      ++restored;
    }
    return restored;
  }

  [[nodiscard]] util::Expected<std::size_t> load_file(
      const std::string& path, std::vector<double>* model = nullptr) {
    if (util::fault(config_.faults, util::FaultSite::kStoreRead)) {
      return util::Expected<std::size_t>::failure(
          "injected store-read fault: " + path);
    }
    std::ifstream in(path);
    if (!in) {
      return util::Expected<std::size_t>::failure("cannot open " + path);
    }
    return load(in, model);
  }

  /// Insert-or-overwrite one entry without touching traffic counters —
  /// the WAL replay path (and any other restoration source) feeds
  /// recovered state through here. Same LRU bookkeeping as load().
  void restore(std::uint64_t key, State state) {
    restore_entry(key, std::move(state));
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

  /// Insert-or-overwrite for load(): the same LRU bookkeeping as
  /// with_group, but silent — restoring a snapshot is bookkeeping, not
  /// traffic, so it must not perturb hit/miss/eviction counters.
  void restore_entry(std::uint64_t key, State state) {
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

  Shard& shard_for(std::uint64_t key) noexcept {
    return shards_[shard_of(key)];
  }
  const Shard& shard_for(std::uint64_t key) const noexcept {
    return shards_[shard_of(key)];
  }

  StoreConfig config_;
  std::vector<Shard> shards_;
  std::size_t mask_ = 0;
  std::size_t per_shard_cap_ = 1;
};

}  // namespace resmatch::svc
