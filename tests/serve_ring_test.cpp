// Unit tests for the serving layer's lock-free plumbing (DESIGN.md §9):
// SPSC/MPSC ring wraparound, full-queue backpressure, FIFO ordering,
// multi-producer races, trace-ID generation, and the latency histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/id_generator.hpp"
#include "serve/ring.hpp"
#include "serve/stats.hpp"

namespace dart::serve {
namespace {

TEST(CeilPow2, RoundsUpWithMinimumTwo) {
  EXPECT_EQ(ceil_pow2(0), 2u);
  EXPECT_EQ(ceil_pow2(1), 2u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(64), 64u);
  EXPECT_EQ(ceil_pow2(65), 128u);
}

TEST(CeilPow2, RejectsCapacitiesPastTheBound) {
  EXPECT_EQ(ceil_pow2(kMaxRingCapacity), kMaxRingCapacity);
  EXPECT_THROW(ceil_pow2(kMaxRingCapacity + 1), std::invalid_argument);
  // Past 2^63, doubling would wrap to 0 and never reach n.
  EXPECT_THROW(ceil_pow2(std::numeric_limits<std::size_t>::max()), std::invalid_argument);
  EXPECT_THROW(SpscRing<int>(kMaxRingCapacity + 1), std::invalid_argument);
  EXPECT_THROW(MpscRing<int>(kMaxRingCapacity + 1), std::invalid_argument);
}

TEST(SpscRing, FifoAcrossManyWraparounds) {
  SpscRing<std::uint64_t> ring(8);
  std::uint64_t next_push = 0, next_pop = 0, out = 0;
  // Interleave pushes and pops so positions lap the 8-slot ring thousands
  // of times; values must come out in exact push order.
  for (int round = 0; round < 10000; ++round) {
    while (ring.try_push(next_push)) ++next_push;
    while (ring.try_pop(out)) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_GT(next_push, 8u * 1000);
}

TEST(SpscRing, RejectsWhenFullAndRecoversAfterPop) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full: rejected, not dropped
  EXPECT_EQ(ring.size_approx(), 4u);
  int out = -1;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(4));  // one slot freed, one accepted
  EXPECT_FALSE(ring.try_push(99));
  for (int expect = 1; expect <= 4; ++expect) {
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, expect);
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty again
}

TEST(SpscRing, ConcurrentProducerConsumerDeliversEverythingInOrder) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kItems = 50000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expect = 0, out = 0;
  while (expect < kItems) {
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expect);
      ++expect;
    } else {
      std::this_thread::yield();  // single-core hosts: let the producer run
    }
  }
  producer.join();
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(MpscRing, FifoAcrossManyWraparoundsSingleProducer) {
  MpscRing<std::uint64_t> ring(8);
  std::uint64_t next_push = 0, next_pop = 0, out = 0;
  for (int round = 0; round < 10000; ++round) {
    while (ring.try_push(next_push)) ++next_push;
    while (ring.try_pop(out)) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_GT(next_push, 8u * 1000);
}

TEST(MpscRing, RejectsWhenFullAndRecoversAfterPop) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  int out = -1;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(4));
  EXPECT_FALSE(ring.try_push(99));
  for (int expect = 1; expect <= 4; ++expect) {
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, expect);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(MpscRing, ConcurrentProducersLoseNothingAndStayPerProducerOrdered) {
  // 4 producers × 5k items through a 64-slot ring: every item arrives
  // exactly once, and each producer's items arrive in its push order
  // (MPSC guarantees per-producer FIFO, not global order).
  constexpr std::uint64_t kPerProducer = 5000;
  constexpr std::uint64_t kProducers = 4;
  MpscRing<std::uint64_t> ring(64);
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t item = (p << 32) | i;
        while (!ring.try_push(item)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint64_t> next_from(kProducers, 0);
  std::uint64_t received = 0, out = 0;
  while (received < kProducers * kPerProducer) {
    if (!ring.try_pop(out)) {
      std::this_thread::yield();  // single-core hosts: let producers refill
      continue;
    }
    const std::uint64_t p = out >> 32, i = out & 0xffffffffu;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(i, next_from[p]) << "producer " << p << " items reordered or lost";
    ++next_from[p];
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(ring.try_pop(out));
  for (std::uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next_from[p], kPerProducer);
}

TEST(MpscRing, BackpressureUnderContentionNeverDropsAcceptedItems) {
  // A tiny ring (capacity 4) forces constant full-queue rejection; each
  // producer counts its accepted pushes and the popped total must match.
  MpscRing<int> ring(4);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (ring.try_push(1)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();  // full: let the consumer drain
        }
      }
    });
  }
  std::uint64_t popped = 0;
  int out = 0;
  while (popped < 10000) {
    if (ring.try_pop(out)) {
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : producers) t.join();
  while (ring.try_pop(out)) ++popped;  // drain the stragglers
  EXPECT_EQ(popped, accepted.load());
}

// Positions are monotonic uint64s that wrap modulo 2^64 — and the Vyukov
// full/empty tests reinterpret position differences as signed, which is UB
// if written as separate casts once positions straddle 2^63. Start the
// rings just below both boundaries and lap them: FIFO order, full
// rejection, and size_approx must all survive the wrap.
TEST(SpscRing, SurvivesPositionWraparoundNearIndexTypeOverflow) {
  for (const std::uint64_t start : {std::numeric_limits<std::uint64_t>::max() - 5,
                                    (std::uint64_t{1} << 63) - 5, std::uint64_t{0}}) {
    SpscRing<std::uint64_t> ring(8, start);
    std::uint64_t next_push = 0, next_pop = 0, out = 0;
    for (int round = 0; round < 16; ++round) {  // 16 laps cross either boundary
      while (ring.try_push(next_push)) ++next_push;
      ASSERT_EQ(ring.size_approx(), 8u) << "start " << start;
      ASSERT_FALSE(ring.try_push(next_push));
      while (ring.try_pop(out)) {
        ASSERT_EQ(out, next_pop) << "start " << start;
        ++next_pop;
      }
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_EQ(ring.size_approx(), 0u);
  }
}

TEST(MpscRing, SurvivesPositionWraparoundNearIndexTypeOverflow) {
  for (const std::uint64_t start : {std::numeric_limits<std::uint64_t>::max() - 5,
                                    (std::uint64_t{1} << 63) - 5, std::uint64_t{0}}) {
    MpscRing<std::uint64_t> ring(8, start);
    std::uint64_t next_push = 0, next_pop = 0, out = 0;
    for (int round = 0; round < 16; ++round) {
      while (ring.try_push(next_push)) ++next_push;
      ASSERT_EQ(ring.size_approx(), 8u) << "start " << start;
      ASSERT_FALSE(ring.try_push(next_push));
      // Pop only half before refilling so head and tail sit on opposite
      // sides of the boundary for a while instead of crossing in lockstep.
      for (int half = 0; half < 4; ++half) {
        ASSERT_TRUE(ring.try_pop(out));
        ASSERT_EQ(out, next_pop) << "start " << start;
        ++next_pop;
      }
      while (ring.try_pop(out)) {
        ASSERT_EQ(out, next_pop) << "start " << start;
        ++next_pop;
      }
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_EQ(ring.size_approx(), 0u);
  }
}

TEST(MpscRing, ConcurrentProducersAcrossThe2To63Boundary) {
  // The signed-difference trick must hold under real contention while
  // positions cross 2^63 (where `int64(seq) - int64(pos)` would overflow).
  constexpr std::uint64_t kPerProducer = 2000;
  constexpr std::uint64_t kProducers = 4;
  MpscRing<std::uint64_t> ring(16, (std::uint64_t{1} << 63) - 64);
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!ring.try_push((p << 32) | i)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint64_t> next_from(kProducers, 0);
  std::uint64_t received = 0, out = 0;
  while (received < kProducers * kPerProducer) {
    if (!ring.try_pop(out)) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t p = out >> 32, i = out & 0xffffffffu;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(i, next_from[p]) << "producer " << p << " reordered across the boundary";
    ++next_from[p];
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(ring.try_pop(out));
}

/// Gate for GatedItem: while closed, copying a gated item blocks. Lets a
/// test freeze a producer inside the claim-then-publish window.
std::atomic<bool> g_copy_gate_closed{false};

struct GatedItem {
  std::uint64_t value = 0;
  bool gated = false;

  GatedItem() = default;
  GatedItem(std::uint64_t v, bool g) : value(v), gated(g) {}
  GatedItem(const GatedItem& o) { *this = o; }
  GatedItem& operator=(const GatedItem& o) {
    if (o.gated) {
      while (g_copy_gate_closed.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    value = o.value;
    gated = o.gated;
    return *this;
  }
};

TEST(MpscRing, ProducerStalledMidPushBlocksConsumptionButLosesNothing) {
  // A Vyukov producer claims its position with a CAS, then copies the
  // payload, then publishes the slot sequence. A producer abandoned (or
  // descheduled indefinitely) between claim and publish must make the
  // consumer see an *empty* ring — positions behind the head are never
  // skipped — and later producers' items must still be accepted and pop in
  // position order once the stuck slot publishes. This is the ring-level
  // guarantee the shard watchdog's restart containment builds on.
  MpscRing<GatedItem> ring(8);
  g_copy_gate_closed.store(true, std::memory_order_release);

  std::thread stuck([&] { ring.try_push(GatedItem{100, true}); });
  // The claim (tail CAS) lands even though the publish is gated.
  while (ring.size_approx() < 1) std::this_thread::yield();

  // Later producers fill every remaining slot...
  for (std::uint64_t i = 1; i <= 7; ++i) {
    ASSERT_TRUE(ring.try_push(GatedItem{i, false}));
  }
  // ...the ring is now full (the stuck slot counts), so pushes reject...
  EXPECT_FALSE(ring.try_push(GatedItem{999, false}));
  // ...and the consumer cannot pop anything: the head position is claimed
  // but unpublished, and FIFO forbids skipping it.
  GatedItem out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(ring.try_pop(out)) << "popped past an unpublished slot";
  }

  g_copy_gate_closed.store(false, std::memory_order_release);
  stuck.join();
  std::vector<std::uint64_t> order;
  while (order.size() < 8) {
    if (ring.try_pop(out)) order.push_back(out.value);
  }
  const std::vector<std::uint64_t> expect{100, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, expect);
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(IdGenerator, NonzeroAndUniqueWithinAThread) {
  const auto ids = default_id_generator(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t id = ids->trace_id();
    ASSERT_NE(id, 0u);
    ASSERT_TRUE(seen.insert(id).second) << "duplicate trace ID";
  }
}

TEST(IdGenerator, UniqueAcrossThreads) {
  const auto ids = default_id_generator(43);
  constexpr int kThreads = 4, kPerThread = 50000;
  std::vector<std::vector<std::uint64_t>> drawn(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      drawn[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) drawn[t].push_back(ids->trace_id());
    });
  }
  for (auto& t : threads) t.join();
  std::set<std::uint64_t> seen;
  for (const auto& v : drawn) {
    for (std::uint64_t id : v) {
      ASSERT_NE(id, 0u);
      ASSERT_TRUE(seen.insert(id).second) << "trace ID collided across threads";
    }
  }
}

TEST(IdGenerator, FixedSeedIsDeterministicPerThread) {
  // Same seed, fresh generator, same calling thread -> same stream.
  const auto a = default_id_generator(7);
  const auto b = default_id_generator(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a->trace_id(), b->trace_id());
}

TEST(LatencyHistogram, QuantilesBoundTheRecordedRange) {
  LatencyHistogram h;
  for (std::uint64_t ns = 1000; ns <= 100000; ns += 1000) h.record(ns);
  EXPECT_EQ(h.count(), 100u);
  const std::uint64_t p50 = h.quantile(0.5), p99 = h.quantile(0.99);
  EXPECT_GE(p50, 40000u);  // log-scale buckets: ~19% worst-case error
  EXPECT_LE(p50, 70000u);
  EXPECT_GE(p99, 80000u);
  EXPECT_LE(p99, 140000u);
  EXPECT_LE(h.quantile(0.0), h.quantile(1.0));
}

TEST(LatencyHistogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(1000);
  for (int i = 0; i < 100; ++i) b.record(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_LE(a.quantile(0.25), 2000u);     // low half still visible
  EXPECT_GE(a.quantile(0.95), 500000u);   // high half dominates the tail
}

TEST(LatencyHistogram, EmptyAndSaturatingSamples) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty -> 0
  h.record(0);
  h.record(~0ull);  // saturates into the top bucket, must not crash
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.quantile(1.0), 0u);
}

}  // namespace
}  // namespace dart::serve
