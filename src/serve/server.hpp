// Prefetch-as-a-service (DESIGN.md §9): a multi-client inference server
// over `.dart` artifacts. N independent client streams push requests
// through lock-free MPSC ingress rings into a shard-per-core engine; each
// shard owns an immutable `TabularPredictor` epoch and one reusable
// `InferenceWorkspace`, serves whatever its ring holds (up to `batch_cap`)
// as one micro-batch without waiting for more, and answers over per-client
// SPSC completion rings. Artifacts hot-swap without dropping in-flight
// requests: shards adopt a new epoch only at batch boundaries and the old
// model is retired by epoch (shared_ptr) reclamation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "serve/id_generator.hpp"
#include "serve/shard.hpp"

namespace dart::serve {

/// Largest `ServeConfig::shards` a PrefetchServer accepts.
inline constexpr std::size_t kMaxShards = 1024;

/// Server-wide tuning knobs. `from_env()` reads the `DART_SERVE_*`
/// environment variables documented in the README knob table. The values
/// that size threads, rings and batch buffers, and the timers, are bounded;
/// the PrefetchServer constructor rejects a value past its bound.
struct ServeConfig {
  std::size_t shards = 0;  ///< shard threads, <= kMaxShards; 0 = hardware concurrency
  std::size_t queue_capacity = 1024;  ///< per-shard ingress ring depth, <= kMaxRingCapacity
  /// Default per-client egress ring depth, <= kMaxRingCapacity.
  std::size_t completion_capacity = 1024;
  std::size_t batch_cap = 64;  ///< micro-batch size limit, <= kMaxRingCapacity
  bool pin_threads = false;           ///< pin shard i to core i
  std::uint64_t id_seed = 0x5eed;     ///< trace-ID generator seed
  /// Per-request deadline stamped at submit, microseconds; 0 = none, at
  /// most common::kMaxTimerSeconds. A request still queued past its
  /// deadline is completed as kShed instead of served (DESIGN.md §11).
  std::uint64_t deadline_us = 0;
  /// Queue-depth admission watermarks; 0 disables overload control. At
  /// `watermark_hi` a shard refuses new submits; it admits again at
  /// `watermark_lo` (0 = hi/2).
  std::size_t watermark_hi = 0;
  std::size_t watermark_lo = 0;
  /// Watchdog sweep interval in milliseconds; 0 disables the watchdog, at
  /// most common::kMaxTimerSeconds. A shard whose heartbeat is unchanged
  /// for `watchdog_miss_budget` consecutive sweeps is declared stalled and
  /// its thread restarted.
  std::size_t watchdog_ms = 1000;
  std::size_t watchdog_miss_budget = 8;
  /// swap_artifact quarantine policy: a load rejected as io::ArtifactError
  /// is retried up to `reload_retries` times with doubling backoff starting
  /// at `reload_backoff_us`, then rethrown — the old epoch serves on.
  std::size_t reload_retries = 3;
  std::uint64_t reload_backoff_us = 1000;

  /// Defaults overridden by DART_SERVE_SHARDS / DART_SERVE_QUEUE /
  /// DART_SERVE_BATCH / DART_SERVE_PIN / DART_SERVE_DEADLINE_US /
  /// DART_SERVE_WATERMARK_HI / DART_SERVE_WATERMARK_LO /
  /// DART_SERVE_WATCHDOG_MS.
  static ServeConfig from_env();
};

class PrefetchServer;

/// One client's connection: a submission facade plus the SPSC completion
/// ring responses come back on. Create via PrefetchServer::connect; a
/// session is bound to one shard (round-robin at connect time) so a
/// client's requests complete in submission order. All methods must be
/// called from a single client thread.
class ClientSession {
 public:
  /// Submits one inference request. `addr` ([T, addr_dim]) and `pc`
  /// ([T, pc_dim]) are the segmented feature rows, `probs_out` receives
  /// out_dim probabilities; all three buffers are borrowed until the
  /// matching Response is popped. Returns the request's nonzero trace ID,
  /// or 0 on backpressure (ingress ring full — caller retries after
  /// draining completions).
  std::uint64_t submit(const float* addr, const float* pc, float* probs_out);

  /// Pops one completion; false when none is pending. After a true return,
  /// `out.probs` is published and readable.
  bool poll(Response& out);

  /// Requests submitted minus responses popped on this session.
  std::size_t in_flight() const { return in_flight_; }

  /// The shard this session is bound to.
  std::size_t shard() const { return shard_; }

 private:
  friend class PrefetchServer;
  ClientSession(PrefetchServer& server, std::size_t shard, std::size_t completion_capacity,
                std::shared_ptr<const IdGenerator> ids)
      : server_(server), shard_(shard), completions_(completion_capacity), ids_(std::move(ids)) {}

  PrefetchServer& server_;
  std::size_t shard_;
  SpscRing<Response> completions_;
  std::shared_ptr<const IdGenerator> ids_;
  std::size_t in_flight_ = 0;
};

/// The sharded inference server. Construction spins up the shard threads;
/// destruction (or stop()) drains and joins them. Thread-safe: connect,
/// swap_model/swap_artifact, and stats() may race with serving.
class PrefetchServer {
 public:
  /// Serves `model` (shared, immutable — the shares_mutable_model() audit
  /// in serve/shard.cpp pins why that is required) under `config`. Throws
  /// std::invalid_argument, before any thread or ring exists, when a
  /// `config` value exceeds its documented bound.
  PrefetchServer(std::shared_ptr<const tabular::TabularPredictor> model,
                 const ServeConfig& config);

  /// Convenience: loads the `.dart` artifact at `path` (via the
  /// core::load_dart_artifact reload path) and serves it.
  PrefetchServer(const std::string& path, const ServeConfig& config);

  ~PrefetchServer();

  PrefetchServer(const PrefetchServer&) = delete;
  PrefetchServer& operator=(const PrefetchServer&) = delete;

  /// Opens a client session bound to the next shard (round-robin).
  /// `completion_capacity` 0 uses the config default; it must be at least
  /// the client's maximum in-flight window and at most kMaxRingCapacity
  /// (std::invalid_argument otherwise).
  std::unique_ptr<ClientSession> connect(std::size_t completion_capacity = 0);

  /// Atomically publishes `model` as a new epoch; shards adopt it at their
  /// next batch boundary and in-flight requests finish on the epoch that
  /// admitted them. The input/output geometry (seq_len, addr_dim, pc_dim,
  /// out_dim) must match the serving model — client feature buffers are
  /// sized to it — else std::invalid_argument. Returns the new epoch.
  std::uint64_t swap_model(std::shared_ptr<const tabular::TabularPredictor> model);

  /// Hot-swaps to the `.dart` artifact at `path`, validate-then-publish: the
  /// bytes are read, parsed, checksum-verified and geometry-checked in full
  /// before any shard can observe the new epoch, so a corrupt or truncated
  /// artifact is quarantined (counted in stats().reload_rejected, retried
  /// `reload_retries` times with doubling backoff) while the old epoch keeps
  /// serving. Throws io::ArtifactError after the retry budget, or
  /// std::invalid_argument immediately on a geometry mismatch — either way
  /// the server keeps running on the previously published epoch.
  std::uint64_t swap_artifact(const std::string& path);

  /// Epoch currently published to the shards (starts at 1).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Stops and joins every shard after draining (idempotent). Clients must
  /// have stopped submitting; every accepted request is still completed.
  void stop();

  /// Aggregated per-shard counters and merged latency quantiles.
  ServeStatsSummary stats() const;

  /// Architecture of the currently published model (input geometry is
  /// stable across swaps by contract).
  nn::ModelConfig arch() const;

  /// Number of serving shard threads.
  std::size_t num_shards() const { return shards_.size(); }

  /// The configuration the server was constructed with (shards resolved).
  const ServeConfig& config() const { return config_; }

 private:
  friend class ClientSession;

  ModelEpoch current_model() const;
  /// Watchdog sweep loop: heartbeat deltas -> miss budget -> restart.
  void watchdog_loop();

  ServeConfig config_;
  std::atomic<std::uint64_t> epoch_{1};
  mutable std::mutex model_mu_;      ///< guards model_ (the cold swap path)
  ModelEpoch model_;                 ///< latest published epoch
  std::vector<std::unique_ptr<ShardEngine>> shards_;
  std::shared_ptr<const IdGenerator> ids_;
  std::atomic<std::size_t> next_client_{0};
  std::atomic<std::uint64_t> reload_rejected_{0};  ///< quarantined artifact swaps

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;       ///< guarded by watchdog_mu_
  std::thread watchdog_;
};

}  // namespace dart::serve
