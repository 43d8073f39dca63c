// Differential tests for the calendar (ladder) event queue.
//
// sim::CalendarQueue promises EXACTLY the heap's ordering contract —
// strict (time, insertion seq) order — while being amortized O(1). The
// tests here push identical operation sequences into both queues and
// demand identical popped sequences, across the time distributions that
// stress different tiers: uniform (rungs), exponential tails (top spill),
// heavy ties (bucket sorts and the degenerate equal-time path), and
// all-at-once drains large enough to force ladder degradation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace resmatch {
namespace {

using TimeGen = std::function<double(util::Rng&, double now)>;

/// Interleave pushes and pops on both queues; every pop must agree on
/// (time, payload). Payload equality implies seq-tie agreement: both
/// queues number insertions identically.
void differential(std::uint64_t seed, std::size_t ops, double pop_prob,
                  const TimeGen& gen_time) {
  sim::EventQueue<std::size_t> heap;
  sim::CalendarQueue<std::size_t> cal;
  util::Rng rng(seed);
  double now = 0.0;
  std::size_t next_payload = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    ASSERT_EQ(heap.size(), cal.size());
    if (!heap.empty() && rng.uniform() < pop_prob) {
      ASSERT_EQ(heap.top().time, cal.top().time);
      const auto he = heap.pop();
      const auto ce = cal.pop();
      ASSERT_EQ(he.time, ce.time) << "op " << i;
      ASSERT_EQ(he.payload, ce.payload) << "op " << i;
      now = he.time;
    } else {
      const double t = gen_time(rng, now);
      ASSERT_GE(t, now);  // discrete-event contract: never into the past
      heap.push(t, next_payload);
      cal.push(t, next_payload);
      ++next_payload;
    }
  }
  while (!heap.empty()) {
    ASSERT_FALSE(cal.empty());
    const auto he = heap.pop();
    const auto ce = cal.pop();
    ASSERT_EQ(he.time, ce.time);
    ASSERT_EQ(he.payload, ce.payload);
  }
  ASSERT_TRUE(cal.empty());
  ASSERT_EQ(cal.size(), 0u);
}

TEST(CalendarQueue, UniformTimesMatchHeap) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    differential(seed, 20000, 0.45, [](util::Rng& rng, double now) {
      return now + rng.uniform() * 1000.0;
    });
  }
}

TEST(CalendarQueue, ExponentialTailMatchesHeap) {
  // Long-tailed horizons exercise the unsorted top spill and its
  // min/max-tracked respawn into rungs.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    differential(seed, 20000, 0.45, [](util::Rng& rng, double now) {
      return now + rng.exponential(0.001);
    });
  }
}

TEST(CalendarQueue, HeavyTiesMatchHeap) {
  // Quantized times: many exact ties per bucket, popping must preserve
  // insertion order within each tie group.
  for (std::uint64_t seed : {21u, 22u}) {
    differential(seed, 20000, 0.45, [](util::Rng& rng, double now) {
      return now + std::floor(rng.uniform() * 40.0);
    });
  }
}

TEST(CalendarQueue, AllEventsAtOneTimeMatchHeap) {
  // Zero-span distribution: the degenerate top case (top_max == top_min)
  // must sort exactly and keep later equal-time pushes after earlier ones.
  differential(31, 8000, 0.4,
               [](util::Rng&, double now) { return now; });
}

TEST(CalendarQueue, BurstsWithQuietGapsMatchHeap) {
  // Bursty arrivals: tight clusters separated by long gaps — the skew the
  // ladder degradation exists for.
  for (std::uint64_t seed : {41u, 42u}) {
    differential(seed, 20000, 0.45, [](util::Rng& rng, double now) {
      const double burst = rng.bernoulli(0.9)
                               ? rng.uniform() * 0.5
                               : 50000.0 + rng.uniform() * 1000.0;
      return now + burst;
    });
  }
}

TEST(CalendarQueue, BulkDrainForcesLadderDegradation) {
  // Push 200k events before the first pop: buckets far exceed the spawn
  // threshold, forcing nested rungs, then drain fully sorted.
  sim::EventQueue<std::size_t> heap;
  sim::CalendarQueue<std::size_t> cal;
  util::Rng rng(77);
  for (std::size_t i = 0; i < 200000; ++i) {
    // Clustered: 1000 dense centers with tight jitter plus exact ties.
    const double center = std::floor(rng.uniform() * 1000.0) * 10.0;
    const double t =
        rng.bernoulli(0.3) ? center : center + rng.uniform() * 0.25;
    heap.push(t, i);
    cal.push(t, i);
  }
  ASSERT_EQ(cal.size(), 200000u);
  while (!heap.empty()) {
    const auto he = heap.pop();
    const auto ce = cal.pop();
    ASSERT_EQ(he.time, ce.time);
    ASSERT_EQ(he.payload, ce.payload);
  }
  ASSERT_TRUE(cal.empty());
}

TEST(CalendarQueue, ChildRungOverhangDoesNotStealFromParentNextBucket) {
  // Regression: a child rung spawned while refining a parent bucket
  // [lo, hi) carries one overflow bucket past hi (so hi itself lands in
  // range under FP rounding). Pushes into that overhang [hi, hi + child
  // width) must be refused — the parent's next bucket already holds
  // earlier events from the same sliver, and claiming them out of the
  // child pops them too early. Needs a dense cluster (to force the child
  // spawn) plus boundary-straddling traffic; the random mixes above never
  // line both up, a 10M-event cluster-scale run did.
  sim::EventQueue<std::size_t> heap;
  sim::CalendarQueue<std::size_t> cal;
  std::size_t next_payload = 0;
  const auto push = [&](double t) {
    heap.push(t, next_payload);
    cal.push(t, next_payload);
    ++next_payload;
  };
  const auto pop = [&]() -> double {
    const auto he = heap.pop();
    const auto ce = cal.pop();
    EXPECT_EQ(he.time, ce.time);
    EXPECT_EQ(he.payload, ce.payload);
    return he.time;
  };

  // Geometry (500 events spanning [0, 9.9] at first pop): the top-spill
  // rung gets bucket width 9.9/500 = 0.0198, so the cluster at 5.0 lands
  // in the parent bucket [4.9896, 5.0094) with ~194 events — over the
  // spawn threshold, so draining through it spawns a child rung with
  // sub-bucket width ~1.02e-4, making the overhang [5.0094, ~5.00950).
  // The tail's 1e-4 spacing guarantees an event inside that sliver
  // (5.00945) sitting in the parent's NEXT bucket.
  for (int i = 0; i < 100; ++i) push(static_cast<double>(i) * 0.1);
  for (int j = 0; j < 100; ++j) push(5.0 + static_cast<double>(j) * 1e-7);
  for (int k = 0; k < 300; ++k)
    push(5.00015 + static_cast<double>(k) * 1e-4);

  // Drain into the cluster (the child rung is live now), then interleave
  // pops with pushes at now + 9.45e-3: from inside the cluster those land
  // in the child's overhang sliver, AFTER the 5.00945 event already
  // sitting in the parent's next bucket.
  double now = 0.0;
  while (now < 5.0) now = pop();
  for (int i = 0; i < 100 && !heap.empty(); ++i) {
    push(now + 9.45e-3);
    now = pop();
  }
  while (!heap.empty()) pop();
  EXPECT_TRUE(cal.empty());
}

TEST(CalendarQueue, SteadyStateWindowMatchesHeap) {
  // The simulator's actual shape: a sliding window of pending job ends —
  // push one or two, pop one, forever.
  sim::EventQueue<int> heap;
  sim::CalendarQueue<int> cal;
  util::Rng rng(99);
  double now = 0.0;
  int payload = 0;
  for (int i = 0; i < 50000; ++i) {
    const int pushes = rng.bernoulli(0.5) ? 2 : 1;
    for (int p = 0; p < pushes; ++p) {
      const double t = now + rng.exponential(0.01);
      heap.push(t, payload);
      cal.push(t, payload);
      ++payload;
    }
    const auto he = heap.pop();
    const auto ce = cal.pop();
    ASSERT_EQ(he.time, ce.time);
    ASSERT_EQ(he.payload, ce.payload);
    now = he.time;
  }
}

}  // namespace
}  // namespace resmatch
