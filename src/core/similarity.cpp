#include "core/similarity.hpp"

#include "trace/analysis.hpp"
#include "util/rng.hpp"

namespace resmatch::core {

namespace {
constexpr std::size_t kInitialSlots = 16;
}  // namespace

std::uint64_t default_similarity_key(const trace::JobRecord& job) noexcept {
  return trace::default_group_key(job);
}

SimilarityIndex::SimilarityIndex(SimilarityKeyFn key_fn)
    : key_fn_(std::move(key_fn)),
      slots_(kInitialSlots),
      mask_(kInitialSlots - 1) {}

std::size_t SimilarityIndex::probe(std::uint64_t key) const noexcept {
  // Terminates: the table is never more than half full.
  std::size_t i = util::mix64(key) & mask_;
  while (slots_[i].id != kFree && slots_[i].key != key) i = (i + 1) & mask_;
  return i;
}

void SimilarityIndex::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id != kFree) slots_[probe(s.key)] = s;
  }
}

GroupId SimilarityIndex::group_of(const trace::JobRecord& job) {
  const std::uint64_t key = key_fn_(job);
  std::size_t i = probe(key);
  if (slots_[i].id != kFree) return slots_[i].id;
  if (2 * (size_ + 1) > slots_.size()) {
    grow();
    i = probe(key);
  }
  slots_[i] = {key, static_cast<GroupId>(size_)};
  return size_++;
}

std::optional<GroupId> SimilarityIndex::find(
    const trace::JobRecord& job) const {
  const Slot& s = slots_[probe(key_fn_(job))];
  if (s.id == kFree) return std::nullopt;
  return s.id;
}

}  // namespace resmatch::core
