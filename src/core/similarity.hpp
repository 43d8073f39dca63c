// Online similarity-group identification (paper §2.2).
//
// A similarity group is a disjoint set of job submissions expected to use
// a similar amount of resources. The paper's key for the LANL CM5 trace —
// lacking explicit job IDs — is the (user id, application number,
// requested memory) triple; SimilarityIndex assigns dense group ids to
// keys as they first appear, which is the online counterpart of the
// offline analysis in trace/analysis.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "trace/job_record.hpp"

namespace resmatch::core {

/// Hash key identifying a similarity group.
using SimilarityKeyFn = std::function<std::uint64_t(const trace::JobRecord&)>;

/// The paper's default key (user, app, requested memory). Defined in
/// trace/analysis.cpp; re-exported here so estimators need only this header.
[[nodiscard]] std::uint64_t default_similarity_key(
    const trace::JobRecord& job) noexcept;

/// Assigns dense GroupIds to similarity keys on first sight. Estimators
/// index their per-group state vectors with the returned ids.
///
/// Every estimator preview, estimate and feedback probes this index, so it
/// is a flat open-addressing table: 16-byte {key, id} slots, a power-of-two
/// capacity at most half full, linear probing. A probe usually reads one
/// cache line. Keys are re-mixed before masking because custom key
/// functions (a user id, say) are not hashes.
class SimilarityIndex {
 public:
  explicit SimilarityIndex(SimilarityKeyFn key_fn = default_similarity_key);

  /// Group id for a job, creating a new group when the key is unseen.
  [[nodiscard]] GroupId group_of(const trace::JobRecord& job);

  /// Group id if the key is already known.
  [[nodiscard]] std::optional<GroupId> find(const trace::JobRecord& job) const;

  [[nodiscard]] std::size_t group_count() const noexcept { return size_; }

 private:
  /// Marks a free slot in the id field, so every 64-bit key (0 and
  /// UINT64_MAX included) is a valid key.
  static constexpr GroupId kFree = ~GroupId{0};

  struct Slot {
    std::uint64_t key = 0;
    GroupId id = kFree;
  };

  /// The slot holding `key`, or the free slot ending its probe chain.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept;
  void grow();

  SimilarityKeyFn key_fn_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace resmatch::core
