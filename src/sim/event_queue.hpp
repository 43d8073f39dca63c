// Deterministic discrete-event queue.
//
// A binary min-heap ordered by (time, insertion sequence): events at equal
// times pop in insertion order, which makes whole simulations bit-for-bit
// reproducible across runs and platforms.
//
// The heap is an explicit vector driven by std::push_heap/std::pop_heap
// rather than a std::priority_queue: priority_queue::top() returns a
// const reference, which would force pop() to deep-copy the top event.
// pop_heap moves the top element to the back of the vector, where pop()
// can move the whole event out. This also admits move-only payloads.
//
// The simulator runs on sim::CalendarQueue; this heap is the reference
// ordering tests/calendar_queue_test checks it against.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace resmatch::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    Seconds time = 0.0;
    std::uint64_t seq = 0;
    Payload payload{};
  };

  void push(Seconds time, Payload payload) {
    assert(next_seq_ != ~std::uint64_t{0} && "event seq space exhausted");
    heap_.push_back(Event{time, next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  [[nodiscard]] const Event& top() const {
    // Guards the classic top()-after-final-pop() bug: on an empty queue
    // front() is UB and size()-derived indices underflow.
    assert(!heap_.empty() && "top() on empty EventQueue");
    return heap_.front();
  }

  Event pop() {
    assert(!heap_.empty() && "pop() on empty EventQueue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;  // max-heap under Later = min-(time, seq) first
  std::uint64_t next_seq_ = 0;
};

}  // namespace resmatch::sim
