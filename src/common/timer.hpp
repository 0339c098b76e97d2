// Wall-clock timing helpers for benchmarks and progress reporting.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

namespace dart::common {

/// Longest timer a configuration may set, in seconds: one hour. It bounds
/// the serve deadline and watchdog, the serving load schedule, and the
/// sweep's per-cell timeout and retry backoff, so no duration built from a
/// user-set value can wrap.
inline constexpr std::uint64_t kMaxTimerSeconds = 3600;

/// Monotonic stopwatch; `elapsed_ms()` can be called repeatedly.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(clock::now() - start_).count();
  }

  double elapsed_s() const { return elapsed_ms() / 1000.0; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Prints "<label>: <ms> ms" to stderr when the scope ends.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string label) : label_(std::move(label)) {}
  ~ScopedTimer() { std::fprintf(stderr, "[time] %s: %.1f ms\n", label_.c_str(), watch_.elapsed_ms()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string label_;
  Stopwatch watch_;
};

}  // namespace dart::common
