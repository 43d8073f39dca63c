// Tests for the simulator's event queue.
//
// sim::EventQueue promises strict (time, insertion seq) order: ties pop
// in insertion order, which keeps whole simulations bit-for-bit
// reproducible. The differential tests push identical operation
// sequences into the queue and into a brute-force oracle, a std::map
// keyed by (time, seq), and demand identical popped sequences across
// uniform times, exponential tails, heavy ties, one shared time, bursts
// with quiet gaps and the simulator's steady-state window.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace resmatch::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue<int> q;
  q.push(3.0, 30);
  q.push(1.0, 10);
  q.push(2.0, 20);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StableAtEqualTimes) {
  EventQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(5.0, i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop().payload, i);
}

TEST(EventQueue, TopPeeksWithoutPopping) {
  EventQueue<int> q;
  q.push(1.0, 42);
  EXPECT_EQ(q.top().payload, 42);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, MoveOnlyPayload) {
  // Regression: pop() used to deep-copy the top event because
  // priority_queue::top() returns a const reference; move-only payloads
  // did not even compile. pop() must move the payload out.
  EventQueue<std::unique_ptr<int>> q;
  q.push(2.0, std::make_unique<int>(2));
  q.push(1.0, std::make_unique<int>(1));
  q.push(1.0, std::make_unique<int>(10));
  auto first = q.pop();
  ASSERT_TRUE(first.payload);
  EXPECT_EQ(*first.payload, 1);
  // Tie at t=1.0 resolves by insertion order (seq), as before.
  EXPECT_EQ(*q.pop().payload, 10);
  EXPECT_EQ(*q.pop().payload, 2);
  EXPECT_TRUE(q.empty());
}

// --- differential against a (time, seq) oracle ------------------------------

using TimeGen = std::function<double(util::Rng&, double now)>;

/// The queue under test and its oracle, fed the same operations.
class Differential {
 public:
  void push(double t) {
    queue_.push(t, next_payload_);
    oracle_.emplace(std::pair{t, next_seq_++}, next_payload_);
    ++next_payload_;
  }

  /// Pop both; they must agree on time, seq and payload.
  double pop() {
    EXPECT_EQ(queue_.size(), oracle_.size());
    const auto expected = oracle_.begin();
    EXPECT_EQ(queue_.top().time, expected->first.first);
    const auto e = queue_.pop();
    EXPECT_EQ(e.time, expected->first.first);
    EXPECT_EQ(e.seq, expected->first.second);
    EXPECT_EQ(e.payload, expected->second);
    oracle_.erase(expected);
    return e.time;
  }

  [[nodiscard]] bool empty() const { return oracle_.empty(); }

  void drain() {
    while (!oracle_.empty()) {
      pop();
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_TRUE(queue_.empty());
  }

 private:
  EventQueue<std::size_t> queue_;
  std::map<std::pair<double, std::uint64_t>, std::size_t> oracle_;
  std::uint64_t next_seq_ = 0;
  std::size_t next_payload_ = 0;
};

/// Interleave pushes at gen_time(now) with pops, then drain.
void differential(std::uint64_t seed, std::size_t ops, double pop_prob,
                  const TimeGen& gen_time) {
  Differential d;
  util::Rng rng(seed);
  double now = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    if (!d.empty() && rng.uniform() < pop_prob) {
      now = d.pop();
    } else {
      d.push(gen_time(rng, now));
    }
    if (::testing::Test::HasFailure()) FAIL() << "diverged at op " << i;
  }
  d.drain();
}

TEST(EventQueue, UniformTimesMatchOracle) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    differential(seed, 20000, 0.45, [](util::Rng& rng, double now) {
      return now + rng.uniform() * 1000.0;
    });
  }
}

TEST(EventQueue, ExponentialTailMatchesOracle) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    differential(seed, 20000, 0.45, [](util::Rng& rng, double now) {
      return now + rng.exponential(0.001);
    });
  }
}

TEST(EventQueue, HeavyTiesMatchOracle) {
  // Quantized times: many exact ties, which must pop in insertion order.
  for (std::uint64_t seed : {21u, 22u}) {
    differential(seed, 20000, 0.45, [](util::Rng& rng, double now) {
      return now + std::floor(rng.uniform() * 40.0);
    });
  }
}

TEST(EventQueue, AllEventsAtOneTimeMatchOracle) {
  // Every push lands at the current time: order is seq alone.
  differential(31, 8000, 0.4, [](util::Rng&, double now) { return now; });
}

TEST(EventQueue, BurstsWithQuietGapsMatchOracle) {
  // Tight clusters separated by long gaps.
  for (std::uint64_t seed : {41u, 42u}) {
    differential(seed, 20000, 0.45, [](util::Rng& rng, double now) {
      const double burst = rng.bernoulli(0.9)
                               ? rng.uniform() * 0.5
                               : 50000.0 + rng.uniform() * 1000.0;
      return now + burst;
    });
  }
}

TEST(EventQueue, SteadyStateWindowMatchesOracle) {
  // The simulator's actual shape: a sliding window of pending job ends —
  // push one or two, pop one, forever.
  Differential d;
  util::Rng rng(99);
  double now = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const int pushes = rng.bernoulli(0.5) ? 2 : 1;
    for (int p = 0; p < pushes; ++p) d.push(now + rng.exponential(0.01));
    now = d.pop();
    if (::testing::Test::HasFailure()) FAIL() << "diverged at step " << i;
  }
  d.drain();
}

}  // namespace
}  // namespace resmatch::sim
