// Serving-layer observability (DESIGN.md §9): per-shard latency histograms
// and queue/batch counters, written lock-free by the shard thread with
// relaxed atomics and read by anyone as a consistent-enough snapshot
// (monitoring data, not accounting — individual counters are exact, cross-
// counter skew of a few in-flight requests is acceptable).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dart::serve {

/// Lock-free log-scale latency histogram over nanosecond samples.
///
/// Buckets are 4 linear sub-buckets per power of two (HdrHistogram-style,
/// ~19% worst-case relative error per bucket), covering 1 ns .. ~18 min in
/// 160 buckets. `record` is a single relaxed fetch_add; quantiles are
/// computed from a snapshot walk.
class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBits = 2;                      ///< 4 sub-buckets / octave
  static constexpr std::size_t kBuckets = (40 << kSubBits);       ///< covers < 2^40 ns

  /// Records one latency sample (saturates into the top bucket).
  void record(std::uint64_t ns) {
    counts_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Total recorded samples.
  std::uint64_t count() const { return total_.load(std::memory_order_relaxed); }

  /// Approximate `q`-quantile (q in [0, 1]) in nanoseconds: the upper bound
  /// of the first bucket whose cumulative count reaches q * count. 0 when
  /// empty.
  std::uint64_t quantile(double q) const;

  /// Adds another histogram's counts into this one (shard -> aggregate).
  void merge(const LatencyHistogram& other);

 private:
  static std::size_t bucket_of(std::uint64_t ns);
  /// Inclusive upper bound of bucket `b` in nanoseconds.
  static std::uint64_t bucket_bound(std::size_t b);

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> total_{0};
};

/// Shard health state machine (DESIGN.md §11): the watchdog moves a shard
/// to Stalled when its heartbeat stops and back to Healthy after a
/// successful restart (or when the heartbeat resumes on its own).
enum class ShardState : std::uint32_t {
  kHealthy = 0,  ///< serving
  kStalled = 1,  ///< watchdog declared the shard thread unresponsive
};

/// Human-readable name for a ShardState ("healthy" / "stalled").
const char* shard_state_name(ShardState state);

/// Counters one shard maintains while serving (all relaxed atomics, written
/// only by the owning shard thread, except `state` and `watchdog_restarts`
/// which the watchdog also writes).
struct ShardStats {
  std::atomic<std::uint64_t> requests{0};        ///< requests completed
  std::atomic<std::uint64_t> batches{0};         ///< micro-batches executed
  std::atomic<std::uint64_t> occupancy_sum{0};   ///< sum of batch sizes
  std::atomic<std::uint64_t> full_batches{0};    ///< batches at the batch cap
  std::atomic<std::uint64_t> queue_depth_sum{0}; ///< ingress depth sampled per batch
  std::atomic<std::uint64_t> queue_depth_max{0}; ///< peak sampled ingress depth
  std::atomic<std::uint64_t> completion_retries{0};  ///< egress-ring full events
  std::atomic<std::uint64_t> reloads{0};         ///< model epochs adopted
  std::atomic<std::uint64_t> heartbeat{0};       ///< shard-loop liveness ticks
  std::atomic<std::uint64_t> shed{0};            ///< requests completed as kShed
  std::atomic<std::uint64_t> deadline_missed{0}; ///< sheds caused by expired deadlines
  std::atomic<std::uint64_t> admission_rejected{0};  ///< submits refused above the high watermark
  std::atomic<std::uint64_t> watchdog_restarts{0};   ///< shard-thread restarts by the watchdog
  std::atomic<std::uint32_t> state{0};           ///< current ShardState
  LatencyHistogram latency;                      ///< enqueue -> completion-push
};

/// Plain-value snapshot of one shard's counters.
struct ShardStatsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t occupancy_sum = 0;
  std::uint64_t full_batches = 0;
  std::uint64_t queue_depth_sum = 0;
  std::uint64_t queue_depth_max = 0;
  std::uint64_t completion_retries = 0;
  std::uint64_t reloads = 0;
  std::uint64_t heartbeat = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t admission_rejected = 0;
  std::uint64_t watchdog_restarts = 0;
  ShardState state = ShardState::kHealthy;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;

  /// Mean batch occupancy (0 when no batch ran).
  double avg_batch() const {
    return batches == 0 ? 0.0 : static_cast<double>(occupancy_sum) / static_cast<double>(batches);
  }
  /// Mean sampled ingress queue depth (0 when no batch ran).
  double avg_queue_depth() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(queue_depth_sum) / static_cast<double>(batches);
  }
};

/// Reads a consistent-enough snapshot of `stats` (relaxed loads).
ShardStatsSnapshot snapshot(const ShardStats& stats);

/// Server-wide aggregate: per-shard snapshots plus merged latency quantiles.
struct ServeStatsSummary {
  std::vector<ShardStatsSnapshot> shards;
  std::uint64_t requests = 0;      ///< sum over shards
  std::uint64_t batches = 0;       ///< sum over shards
  std::uint64_t shed = 0;          ///< sum over shards (explicit kShed completions)
  std::uint64_t deadline_missed = 0;   ///< sum over shards
  std::uint64_t admission_rejected = 0;  ///< sum over shards
  std::uint64_t watchdog_restarts = 0;   ///< sum over shards
  std::uint64_t reload_rejected = 0;     ///< artifact swaps quarantined by the server
  bool all_healthy = true;         ///< every shard currently ShardState::kHealthy
  std::uint64_t p50_ns = 0;        ///< over the merged histogram
  std::uint64_t p99_ns = 0;        ///< over the merged histogram
  double avg_batch = 0.0;          ///< occupancy mean over all batches
};

}  // namespace dart::serve
