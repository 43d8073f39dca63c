// Bounded multi-producer multi-consumer queue with backpressure.
//
// The matchd admission queue: producers are client threads submitting jobs,
// consumers are the service's worker pool. The queue REJECTS when full
// instead of blocking producers — an overloaded matchmaker must shed load
// with an explicit reason the caller can surface (retry, route elsewhere),
// not stall every submitting client (the same contract as the two-stage
// Mesos front-end this subsystem is modeled on).
//
// A mutex + two condition variables is deliberately the whole design: the
// per-item work behind this queue (hash, shard lock, a few loads/stores)
// is tens of nanoseconds, so queue sophistication is not where service
// throughput comes from — shard striping in the store is (see
// bench/micro_service.cpp for the measured scaling). What the queue does
// owe its callers is cheap hand-off in bulk: push_bulk() admits a whole
// batch under one lock with one notify, and the items live in a
// power-of-two ring of slots. The ring doubles when a push finds it full
// and the queue below `capacity`, so it grows to the queue's high-water
// mark once and a push allocates nothing after that.
#pragma once

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace resmatch::svc {

/// Why a push was refused.
enum class PushResult {
  kOk,
  kFull,    ///< at capacity — backpressure, caller should shed or retry
  kClosed,  ///< queue closed — service is shutting down
};

template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// Non-blocking push; never waits for space.
  PushResult try_push(T&& item) {
    PushResult result = PushResult::kOk;
    push_bulk(std::span<T>(&item, 1), std::span<PushResult>(&result, 1));
    return result;
  }

  /// Non-blocking bulk push under one lock with one notify. Takes the
  /// items whose `results` entry is kOk on entry, in order, and moves each
  /// into the queue until it is full; every such item it could not take
  /// gets kFull (at capacity) or kClosed (closed) and is left unmoved.
  /// Items entered with any other result are skipped and keep it, so a
  /// caller can refuse some of a batch itself. Returns the number pushed.
  std::size_t push_bulk(std::span<T> items, std::span<PushResult> results) {
    assert(items.size() == results.size());
    std::size_t pushed = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (results[i] != PushResult::kOk) continue;
        if (closed_) {
          results[i] = PushResult::kClosed;
        } else if (count_ >= capacity_) {
          results[i] = PushResult::kFull;
        } else {
          if (count_ == ring_.size()) grow();
          ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(items[i]);
          ++count_;
          ++pushed;
        }
      }
    }
    // One item wakes one consumer; a batch may be more than one consumer's
    // pop, so it wakes them all.
    if (pushed == 1) {
      not_empty_.notify_one();
    } else if (pushed > 1) {
      not_empty_.notify_all();
    }
    return pushed;
  }

  /// Blocking bulk pop: waits for at least one item (or close), then
  /// drains up to `max` items into `out`, preserving FIFO order. Returns
  /// the number of items appended to `out`; 0 only when the queue is
  /// closed AND fully drained (the consumer-exit signal), so consumers
  /// process every accepted item before exiting.
  std::size_t pop_bulk(std::vector<T>& out, std::size_t max) {
    if (max == 0) max = 1;
    std::size_t taken = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return count_ != 0 || closed_; });
    const std::size_t mask = ring_.size() - 1;
    while (count_ != 0 && taken < max) {
      out.push_back(std::move(ring_[head_]));
      head_ = (head_ + 1) & mask;
      --count_;
      ++taken;
    }
    const bool drained = count_ == 0;
    lock.unlock();
    if (drained) maybe_drained_.notify_all();
    return taken;
  }

  /// Close the queue: pending items still drain, new pushes are rejected.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    maybe_drained_.notify_all();
  }

  /// Block until every queued item has been popped. Close() does NOT cut
  /// this short: accepted items still drain after close (the pop_bulk()
  /// contract), so "closed" and "empty" are independent conditions and
  /// only the latter releases the waiter. Note: "popped" not
  /// "processed" — callers needing full completion barriers should count
  /// completions themselves.
  void wait_empty() {
    std::unique_lock<std::mutex> lock(mutex_);
    maybe_drained_.wait(lock, [&] { return count_ == 0; });
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  /// Double the ring (at least 16 slots), unwrapping the items to the
  /// front of the new one. Called with mutex_ held, the ring full and the
  /// queue below capacity_, so the ring never passes twice the high-water
  /// mark, whatever the capacity.
  void grow() {
    std::vector<T> grown(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(grown);
    head_ = 0;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable maybe_drained_;
  std::vector<T> ring_;  ///< slots; size 0 or a power of two
  std::size_t head_ = 0;   ///< slot of the oldest item
  std::size_t count_ = 0;  ///< items queued
  bool closed_ = false;
};

}  // namespace resmatch::svc
