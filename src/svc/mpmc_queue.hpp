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
// bench/micro_service.cpp for the measured scaling).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
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
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  /// Blocking bulk pop: waits for at least one item (or close), then
  /// drains up to `max` items into `out`, preserving FIFO order. With a
  /// positive `linger`, a partially filled batch waits up to that long
  /// for more items before returning — latency traded for batch size.
  /// Returns the number of items appended to `out`; 0 only when the
  /// queue is closed AND fully drained (the consumer-exit signal), so
  /// consumers process every accepted item before exiting.
  std::size_t pop_bulk(std::vector<T>& out, std::size_t max,
                       std::chrono::microseconds linger =
                           std::chrono::microseconds{0}) {
    if (max == 0) max = 1;
    std::size_t taken = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    const auto take = [&] {
      while (!items_.empty() && taken < max) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
        ++taken;
      }
    };
    take();
    if (taken == 0) return 0;  // closed and drained
    if (taken < max && linger.count() > 0 && !closed_) {
      const auto deadline = std::chrono::steady_clock::now() + linger;
      while (taken < max && !closed_) {
        if (!not_empty_.wait_until(lock, deadline, [&] {
              return !items_.empty() || closed_;
            })) {
          break;  // linger expired with no new arrivals
        }
        take();
      }
    }
    const bool drained = items_.empty();
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
    maybe_drained_.wait(lock, [&] { return items_.empty(); });
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable maybe_drained_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace resmatch::svc
