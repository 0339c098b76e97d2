// Unit tests for the common utilities: thread pool, parallel_for, RNG,
// strict number parsing and env knobs, and table printing.
//
// The RNG section pins golden output vectors: the counter-based core
// (SplitMix64 / wyrand / mix64) and every sampler built on it are part of
// the reproducibility contract (DESIGN.md §12) — artifact hashes and the
// trace corpus depend on these exact streams, so a change here is a
// compatibility break, not a refactor.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/detmath.hpp"
#include "common/rng.hpp"
#include "common/table_printer.hpp"
#include "common/text.hpp"
#include "common/thread_pool.hpp"

namespace dart::common {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, TaskExceptionRethrownAtWaitIdle) {
  // A throwing task must not kill the worker silently: the first exception
  // is captured and rethrown to the caller blocked in wait_idle (DESIGN.md
  // §13 — a sweep cell crash surfaces at the fork point, never vanishes).
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after the rethrow.
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, FirstOfManyExceptionsWins) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  // Exactly one rethrow per wait_idle; the captured slot is cleared by it.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // no stale exception left behind
  SUCCEED();
}

TEST(ThreadPool, RefusesMoreThanMaxThreadsBeforeStartingAny) {
  // Throwing from the constructor's first line means no worker started:
  // a started std::thread that is never joined would terminate the test.
  for (const std::size_t count : {kMaxThreads + 1, std::numeric_limits<std::size_t>::max()}) {
    EXPECT_THROW(ThreadPool pool(count), InputError) << count;
  }
}

TEST(ParallelForEach, BodyExceptionPropagatesToCaller) {
  // parallel_for_each is the sweep's fan-out primitive: a throwing body
  // must rethrow at the call site after every block finishes (no deadlock
  // on the completion latch, no lost worker).
  std::atomic<int> ran{0};
  try {
    parallel_for_each(64, [&](std::size_t i) {
      ++ran;
      if (i == 7) throw std::invalid_argument("body boom");
    }, 1);
    FAIL() << "expected the body exception to propagate";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "body boom");
  }
  // Every block completed (the latch drained) despite the throw.
  EXPECT_GT(ran.load(), 0);
  // The pool is healthy afterwards.
  std::atomic<int> total{0};
  parallel_for_each(100, [&](std::size_t) { ++total; }, 1);
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  }, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesZeroAndSingleElement) {
  int calls = 0;
  parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  parallel_for(1, [&](std::size_t b, std::size_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ParallelFor, NestedCallsExecuteInline) {
  // Nested parallel_for must not deadlock the bounded pool.
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      parallel_for(100, [&](std::size_t b2, std::size_t e2) {
        total += static_cast<int>(e2 - b2);
      }, 1);
    }
  }, 1);
  EXPECT_EQ(total.load(), 800);
}

TEST(ParallelForEach, MatchesSerialSum) {
  std::vector<std::atomic<long>> acc(1);
  std::atomic<long> sum{0};
  parallel_for_each(1000, [&](std::size_t i) { sum += static_cast<long>(i); }, 8);
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 100000) == b.uniform_int(0, 100000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ZipfLikeStaysInRangeAndIsSkewed) {
  Rng r(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t v = r.zipf_like(10, 0.5);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  EXPECT_GT(counts[0], counts[5]);  // heavy head
}

TEST(Rng, DeriveSeedDecorrelatesStreams) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(5, 9), derive_seed(5, 9));
}

// --------------------------------------------------------------- golden RNG

// SplitMix64 from state 0: the published reference sequence. Any change to
// the counter core silently re-keys every committed artifact and trace hash.
TEST(RngGolden, SplitMix64MatchesReferenceVectors) {
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64_next(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64_next(state), 0x06c45d188009454fULL);
  EXPECT_EQ(splitmix64_next(state), 0xf88bb8a8724c81ecULL);
}

TEST(RngGolden, Mix64AndWyrandPinned) {
  EXPECT_EQ(mix64(1), 0x5692161d100b05e5ULL);
  EXPECT_EQ(mix64(0xdeadbeefULL), 0x4e062702ec929eeaULL);
  std::uint64_t state = 1;
  EXPECT_EQ(wyrand_next(state), 0xcdef1695e1f8ed2cULL);
  EXPECT_EQ(wyrand_next(state), 0x61d6d24b1c9aad40ULL);
  EXPECT_EQ(wyrand_next(state), 0x8cf880c22eebfadfULL);
}

// derive_seed feeds stream decorrelation everywhere (loadgen traces and
// arrivals, fault draws, pipeline sub-seeds); the serve layer pins these
// exact values.
TEST(RngGolden, DeriveSeedPinned) {
  EXPECT_EQ(derive_seed(42, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(derive_seed(42, 7), 0xccf635ee9e9e2fa4ULL);
}

TEST(RngGolden, CounterU01MatchesTopBitFormula) {
  // counter_u01 is the pinned fault-injector draw: top 53 bits of the
  // derived seed scaled by 2^-53.
  for (std::uint64_t n = 0; n < 64; ++n) {
    const double expect =
        static_cast<double>(derive_seed(9, n) >> 11) * (1.0 / 9007199254740992.0);
    EXPECT_EQ(counter_u01(9, n), expect);
  }
}

TEST(RngGolden, NextU64AndBelowPinned) {
  Rng r(123);
  EXPECT_EQ(r.next_u64(), 0x9e3af31dbe02f15fULL);
  EXPECT_EQ(r.next_u64(), 0xfe55109a08da842dULL);
  EXPECT_EQ(r.next_u64(), 0x17bc6b4f13530f17ULL);
  EXPECT_EQ(r.next_u64(), 0x2c7199cfd7076d21ULL);
  Rng b(7);
  const std::uint64_t expect[] = {623, 719, 256, 884, 809, 696, 489, 330};
  for (std::uint64_t e : expect) EXPECT_EQ(b.below(1000), e);
}

TEST(RngGolden, ShufflePinned) {
  Rng r(9);
  std::vector<int> perm(8);
  std::iota(perm.begin(), perm.end(), 0);
  r.shuffle(perm);
  const std::vector<int> expect = {4, 3, 5, 0, 2, 7, 1, 6};
  EXPECT_EQ(perm, expect);
}

// The FP samplers go through det:: math only, so their bit patterns are
// identical across compilers/stdlibs — assert exact doubles via bits.
TEST(RngGolden, NormalBitExact) {
  Rng r(11);
  const std::uint64_t expect[] = {0x3ffbf07d8e5d0834ULL, 0x3fe640a4014df6efULL,
                                  0x3fd924dcba8319d7ULL, 0x3ffd361dda927bdfULL};
  for (std::uint64_t e : expect) {
    const double d = r.normal(0.0, 1.0);
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    EXPECT_EQ(bits, e);
  }
}

TEST(RngGolden, SamplersPinned) {
  ZipfianSampler z(1000, 0.99);
  Rng rz(5);
  const std::uint64_t ez[] = {6, 8, 14, 12, 7, 22, 2, 0};
  for (std::uint64_t e : ez) EXPECT_EQ(z.next(rz), e);

  ScrambledZipfianSampler s(1000, 0.99);
  Rng rs(5);
  const std::uint64_t es[] = {492, 120, 209, 500, 604, 67, 730, 0};
  for (std::uint64_t e : es) EXPECT_EQ(s.next(rs), e);

  LatestSampler l(1000, 0.99);
  Rng rl(5);
  const std::uint64_t el[] = {993, 991, 985, 987, 992, 977, 997, 999};
  for (std::uint64_t e : el) EXPECT_EQ(l.next(rl, 1000), e);

  ExponentialSampler x(1000, 100.0);
  Rng rx(5);
  const std::uint64_t ex[] = {41, 47, 59, 56, 44, 70, 22, 13};
  for (std::uint64_t e : ex) EXPECT_EQ(x.next(rx), e);
}

TEST(RngGolden, SamplerConstructorRejectsBadParameters) {
  EXPECT_THROW(ZipfianSampler(0, 0.99), std::invalid_argument);
  EXPECT_THROW(ZipfianSampler(100, 0.0), std::invalid_argument);
  EXPECT_THROW(ZipfianSampler(100, 1.0), std::invalid_argument);
}

// ---------------------------------------------------------- statistical RNG

// Lemire-debiased below(n) must be uniform: chi-squared over 64 buckets,
// 64k draws. 99.9th percentile of chi2(63) is ~106; a biased bound
// sampler blows far past it.
TEST(RngStats, BelowIsUniformChiSquared) {
  constexpr int kBuckets = 64;
  constexpr int kDraws = 1 << 16;
  Rng r(2024);
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(kBuckets)];
  const double expect = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (int c : counts) chi2 += (c - expect) * (c - expect) / expect;
  EXPECT_LT(chi2, 106.0);
}

// Zipfian rank-frequency: log f(r) ~ -theta log r. Regress the slope over
// the top ranks and compare against theta.
TEST(RngStats, ZipfianRankFrequencySlopeTracksTheta) {
  for (double theta : {0.8, 0.99}) {
    constexpr std::uint64_t kItems = 10000;
    constexpr int kDraws = 1 << 18;
    ZipfianSampler z(kItems, theta);
    Rng r(77);
    std::vector<int> counts(kItems, 0);
    for (int i = 0; i < kDraws; ++i) ++counts[z.next(r)];
    // Ranks 1..32 carry plenty of mass; least-squares in log-log space.
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    int m = 0;
    for (int rank = 1; rank <= 32; ++rank) {
      if (counts[rank - 1] < 8) continue;  // too noisy for the fit
      const double x = std::log(static_cast<double>(rank));
      const double y = std::log(static_cast<double>(counts[rank - 1]));
      sx += x; sy += y; sxx += x * x; sxy += x * y;
      ++m;
    }
    ASSERT_GE(m, 16);
    const double slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
    EXPECT_NEAR(-slope, theta, 0.12) << "theta=" << theta;
  }
}

// Latest: recency-skewed — the newest 1% of keys should absorb most of the
// mass. Exponential: mean near the configured mean, truncated to items.
TEST(RngStats, LatestAndExponentialRecencyMass) {
  constexpr std::uint64_t kItems = 10000;
  constexpr int kDraws = 1 << 16;
  LatestSampler latest(kItems, 0.99);
  Rng rl(31);
  int newest = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (latest.next(rl, kItems) >= kItems - kItems / 100) ++newest;
  }
  EXPECT_GT(static_cast<double>(newest) / kDraws, 0.5);

  ExponentialSampler expo(kItems, 250.0);
  Rng re(32);
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(expo.next(re));
  EXPECT_NEAR(sum / kDraws, 250.0, 25.0);
}

TEST(RngStats, NormalMomentsMatch) {
  Rng r(5150);
  constexpr int kDraws = 1 << 16;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double d = r.normal(2.0, 3.0);
    sum += d;
    sumsq += d * d;
  }
  const double mean = sum / kDraws;
  const double var = sumsq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

// det:: math replaces libm on sampler paths; it must stay accurate or the
// zipfian eta/alpha terms drift from the YCSB reference distribution.
TEST(DetMath, TracksLibmWithinTolerance) {
  for (double x : {1e-6, 0.01, 0.5, 1.0, 2.0, 10.0, 12345.678, 1e12}) {
    EXPECT_NEAR(det::log(x), std::log(x), std::abs(std::log(x)) * 1e-12 + 1e-14) << x;
  }
  for (double x : {-40.0, -1.5, 0.0, 0.5, 3.0, 30.0}) {
    EXPECT_NEAR(det::exp(x), std::exp(x), std::exp(x) * 1e-12) << x;
  }
  for (double b : {0.1, 0.99, 2.0, 700.0}) {
    for (double e : {-2.0, -0.01, 0.5, 1.0, 3.0}) {
      EXPECT_NEAR(det::pow(b, e), std::pow(b, e), std::abs(std::pow(b, e)) * 1e-11)
          << b << "^" << e;
    }
  }
}

TEST(Env, UintParsesAndRefusesMalformed) {
  ::unsetenv("DART_TEST_INT");
  EXPECT_EQ(env_uint("DART_TEST_INT", 7), 7u);  // unset -> fallback
  ::setenv("DART_TEST_INT", "", 1);
  EXPECT_EQ(env_uint("DART_TEST_INT", 7), 7u);  // empty -> fallback
  ::setenv("DART_TEST_INT", "42", 1);
  EXPECT_EQ(env_uint("DART_TEST_INT", 7), 42u);
  EXPECT_EQ(env_uint("DART_TEST_INT", 7, 42), 42u);  // the max itself is accepted
  ::setenv("DART_TEST_INT", "18446744073709551615", 1);
  EXPECT_EQ(env_uint("DART_TEST_INT", 7), ~std::uint64_t{0});
  // A malformed value is refused by name, never read as the fallback: a
  // word, a trailing character, a sign, whitespace, past 64 bits or the max.
  for (const char* bad : {"notanint", "5x", "-1", " 7", "+7", "7 ", "0x10",
                          "18446744073709551616"}) {
    ::setenv("DART_TEST_INT", bad, 1);
    try {
      env_uint("DART_TEST_INT", 7);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find("DART_TEST_INT"), std::string::npos) << e.what();
    }
  }
  ::setenv("DART_TEST_INT", "43", 1);
  EXPECT_THROW(env_uint("DART_TEST_INT", 7, 42), InputError);
  ::unsetenv("DART_TEST_INT");
}

TEST(Env, DoubleParses) {
  ::setenv("DART_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("DART_TEST_DBL", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("x", "1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double("x", ".5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_double("x", "7"), 7.0);
  for (const char* bad : {"", "nan", "inf", "-1", "+1", " 1", "2.5x", "1e999", "abc"}) {
    EXPECT_THROW(parse_double("x", bad), InputError) << "'" << bad << "'";
  }
  ::unsetenv("DART_TEST_DBL");
  EXPECT_DOUBLE_EQ(env_double("DART_TEST_DBL", 1.0), 1.0);
}

TEST(Env, ListSplitsOnComma) {
  ::setenv("DART_TEST_LIST", "a,b,,c", 1);
  const auto items = env_list("DART_TEST_LIST");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "a");
  EXPECT_EQ(items[2], "c");
  ::unsetenv("DART_TEST_LIST");
}

TEST(Env, KnobListIsSortedAndUnique) {
  EXPECT_TRUE(std::is_sorted(std::begin(kKnobs), std::end(kKnobs)));
  EXPECT_EQ(std::adjacent_find(std::begin(kKnobs), std::end(kKnobs)), std::end(kKnobs));
}

// DART_QUANT was a knob until quantized tables were deleted; DART_THREAD is
// DART_THREADS misspelt. Both would otherwise be ignored without a word.
TEST(Env, UnknownKnobsAreNamed) {
  const char* env[] = {"DART_QUANT=int8", "DART_THREADS=2", "HOME=/x", "DART_THREAD=4",
                       "DART_FAULT=", "XDART_APPS=1", "DART_SWEEP_DIR", nullptr};
  EXPECT_EQ(unknown_knobs(env), (std::vector<std::string>{"DART_QUANT", "DART_THREAD"}));
  const char* known[] = {"DART_SIM_INSTR=1", nullptr};
  EXPECT_TRUE(unknown_knobs(known).empty());
  EXPECT_TRUE(unknown_knobs(nullptr).empty());
}

TEST(TablePrinter, FormatHelpers) {
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::fmt_bytes(864400.0), "864.4K");
  EXPECT_EQ(TablePrinter::fmt_bytes(3.75e6), "3.75M");
  EXPECT_EQ(TablePrinter::fmt_count(98.3e6), "98.3M");
  EXPECT_EQ(TablePrinter::fmt_pct(0.376), "37.6%");
}

TEST(TablePrinter, WritesCsv) {
  TablePrinter t("test");
  t.set_header({"a", "b"});
  t.add_row({"1", "two,with comma"});
  t.add_row({"a\"b", "line\nbreak"});
  const std::string path = "/tmp/dart_test_table.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // RFC 4180: quotes doubled, a line break kept inside a quoted field.
  EXPECT_EQ(text, "a,b\n1,\"two,with comma\"\n\"a\"\"b\",\"line\nbreak\"\n");
}

TEST(PinCurrentThread, PinsOnLinuxAndKeepsWorking) {
  // Core indices wrap modulo hardware concurrency, so any index is valid.
  const bool pinned = pin_current_thread(0);
  const bool pinned_wrapped = pin_current_thread(1u << 20);
#if defined(__linux__)
  EXPECT_TRUE(pinned);
  EXPECT_TRUE(pinned_wrapped);
#else
  EXPECT_FALSE(pinned);
  EXPECT_FALSE(pinned_wrapped);
#endif
  // The thread still runs after (re)pinning.
  std::atomic<int> x{0};
  ++x;
  EXPECT_EQ(x.load(), 1);
}

}  // namespace
}  // namespace dart::common
