#include "serve/stats.hpp"

namespace dart::serve {

namespace {

/// Index of the highest set bit (0 for value 0).
inline std::size_t log2_floor(std::uint64_t v) {
  std::size_t b = 0;
  while (v >>= 1) ++b;
  return b;
}

}  // namespace

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) {
  if (ns < (1ULL << kSubBits)) return static_cast<std::size_t>(ns);
  const std::size_t octave = log2_floor(ns);
  // Top kSubBits bits below the leading one select the linear sub-bucket.
  const std::size_t sub = static_cast<std::size_t>((ns >> (octave - kSubBits)) & ((1 << kSubBits) - 1));
  const std::size_t idx = ((octave - kSubBits + 1) << kSubBits) + sub;
  return idx < kBuckets ? idx : kBuckets - 1;
}

std::uint64_t LatencyHistogram::bucket_bound(std::size_t b) {
  if (b < (1ULL << kSubBits)) return b;
  const std::size_t octave = (b >> kSubBits) + kSubBits - 1;
  const std::size_t sub = b & ((1 << kSubBits) - 1);
  return (1ULL << octave) + ((sub + 1) << (octave - kSubBits)) - 1;
}

std::uint64_t LatencyHistogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += counts_[b].load(std::memory_order_relaxed);
    if (cum >= rank) return bucket_bound(b);
  }
  return bucket_bound(kBuckets - 1);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = other.counts_[b].load(std::memory_order_relaxed);
    if (c != 0) counts_[b].fetch_add(c, std::memory_order_relaxed);
  }
  total_.fetch_add(other.total_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

const char* shard_state_name(ShardState state) {
  switch (state) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kStalled:
      return "stalled";
  }
  return "unknown";
}

ShardStatsSnapshot snapshot(const ShardStats& stats) {
  ShardStatsSnapshot s;
  s.requests = stats.requests.load(std::memory_order_relaxed);
  s.batches = stats.batches.load(std::memory_order_relaxed);
  s.occupancy_sum = stats.occupancy_sum.load(std::memory_order_relaxed);
  s.full_batches = stats.full_batches.load(std::memory_order_relaxed);
  s.queue_depth_sum = stats.queue_depth_sum.load(std::memory_order_relaxed);
  s.queue_depth_max = stats.queue_depth_max.load(std::memory_order_relaxed);
  s.completion_retries = stats.completion_retries.load(std::memory_order_relaxed);
  s.reloads = stats.reloads.load(std::memory_order_relaxed);
  s.heartbeat = stats.heartbeat.load(std::memory_order_relaxed);
  s.shed = stats.shed.load(std::memory_order_relaxed);
  s.deadline_missed = stats.deadline_missed.load(std::memory_order_relaxed);
  s.admission_rejected = stats.admission_rejected.load(std::memory_order_relaxed);
  s.watchdog_restarts = stats.watchdog_restarts.load(std::memory_order_relaxed);
  s.state = static_cast<ShardState>(stats.state.load(std::memory_order_relaxed));
  s.p50_ns = stats.latency.quantile(0.50);
  s.p99_ns = stats.latency.quantile(0.99);
  return s;
}

}  // namespace dart::serve
