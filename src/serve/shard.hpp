// One serving shard (DESIGN.md §9): a single-threaded inference engine that
// owns an MPSC ingress ring, one `tabular::InferenceWorkspace`, and a
// shared-immutable `TabularPredictor` epoch. The shard thread pops whatever
// its ring holds, up to `batch_cap`, as one micro-batch and runs it through
// the zero-allocation block query path at once; requests that arrive while a
// batch computes form the next one. Responses go onto each request's
// per-client SPSC completion ring.
//
// Model hot-swap: the owning server bumps an epoch counter; the shard
// adopts the new `std::shared_ptr<const TabularPredictor>` strictly at a
// batch boundary, so no batch is ever served by a torn mix of two
// artifacts. The old predictor is retired by epoch reclamation — the final
// shard (or in-flight reader) to drop its reference frees it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/ring.hpp"
#include "serve/stats.hpp"
#include "tabular/tabular_predictor.hpp"
#include "tabular/workspace.hpp"

namespace dart::serve {

/// Steady-clock timestamp in nanoseconds (latency accounting).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct Response;

/// One queued inference request. The feature and output buffers are owned
/// by the submitting client and must stay valid (and untouched) until the
/// matching Response is popped from the completion ring.
struct Request {
  std::uint64_t trace_id = 0;             ///< nonzero per-request trace ID
  const float* addr = nullptr;            ///< [T, addr_dim] segmented addresses
  const float* pc = nullptr;              ///< [T, pc_dim] segmented PCs
  float* probs_out = nullptr;             ///< [out_dim] result probabilities
  SpscRing<Response>* completions = nullptr;  ///< the client's egress ring
  std::uint64_t enqueue_ns = 0;           ///< submit timestamp (latency base)
  std::uint64_t deadline_ns = 0;          ///< absolute deadline; 0 = none
};

/// Completion record pushed to the client's SPSC ring. Popping it (acquire)
/// publishes the probabilities written to the request's `probs_out`.
struct Response {
  /// How the request resolved. Every accepted request gets exactly one
  /// completion — overload never loses work silently (DESIGN.md §11).
  enum class Status : std::uint8_t {
    kOk = 0,    ///< served; `probs` is published and readable
    kShed = 1,  ///< dropped unserved (expired deadline or shard restart);
                ///< `probs` identifies the slot but holds no result
  };

  std::uint64_t trace_id = 0;  ///< echoes Request::trace_id
  std::uint64_t epoch = 0;     ///< model epoch that served the request
  float* probs = nullptr;      ///< == Request::probs_out
  Status status = Status::kOk; ///< served vs explicitly shed
};

/// A model epoch: the immutable predictor plus its version number.
struct ModelEpoch {
  std::shared_ptr<const tabular::TabularPredictor> model;
  std::uint64_t epoch = 0;
};

struct ServeConfig;

class ShardEngine {
 public:
  /// Creates shard `index` of a server configured by `config` (resolved:
  /// nonzero shards and batch_cap, watermark_lo filled in) and starts its
  /// serving thread; it pins to core `index` when `config.pin_threads`.
  /// `config` must outlive the shard. `latest_epoch` is the server's
  /// published epoch counter; when it moves past the local epoch, the shard
  /// calls `reload` (at a batch boundary) to adopt the new model.
  ShardEngine(std::size_t index, const ServeConfig& config, ModelEpoch initial,
              const std::atomic<std::uint64_t>& latest_epoch, std::function<ModelEpoch()> reload);

  /// Stops and joins the shard thread (draining the ingress ring first).
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Enqueues a request from any thread; false on backpressure (ring full,
  /// or admission closed or depth at `watermark_hi`). A parked shard thread
  /// is woken.
  bool submit(const Request& request);

  /// Asks the thread to finish draining and exit, then joins it. Callers
  /// must have quiesced producers first; every request enqueued before
  /// stop() is still served (flush semantics, the no-loss contract).
  void stop();

  /// Watchdog: marks the shard Stalled (heartbeat stopped past the miss
  /// budget). The shard thread reclaims Healthy itself if it resumes.
  void mark_stalled();

  /// Watchdog: clears a Stalled mark back to Healthy (a shard whose
  /// heartbeat resumed on its own, e.g. one that was merely descheduled).
  /// Leaves a Healthy shard untouched.
  void clear_stalled();

  /// Watchdog: asks the (presumed wedged) shard thread to abandon its loop,
  /// waits up to `grace_us` for it to exit, then joins and respawns it.
  /// Requests the old thread held are shed, never lost; the ingress ring
  /// carries over to the successor. False when the thread did not exit
  /// within the grace period (it keeps serving if it ever unsticks, and the
  /// watchdog retries on its next sweep).
  bool try_restart(std::uint64_t grace_us);

  const ShardStats& stats() const { return stats_; }
  std::size_t index() const { return index_; }
  std::size_t queue_capacity() const { return ingress_.capacity(); }

 private:
  void spawn();
  void run();
  /// Adopts the newest model epoch if the server published one.
  void maybe_adopt_epoch();
  /// Samples ingress depth: drives the admission gate (hysteresis between
  /// the watermarks).
  void update_admission();
  /// Runs `n` queued requests as one micro-batch and completes them.
  void serve_batch(Request* batch, std::size_t n);
  /// Completes `req` unserved with an explicit kShed response.
  void shed_request(const Request& req, bool deadline_missed);
  /// Parks until woken by a submit, stop(), or a 200 us timeout.
  void park();

  const std::size_t index_;
  const ServeConfig& config_;
  MpscRing<Request> ingress_;
  const std::atomic<std::uint64_t>& latest_epoch_;
  std::function<ModelEpoch()> reload_;

  // Shard-thread-owned serving state.
  ModelEpoch current_;
  tabular::InferenceWorkspace workspace_;
  std::vector<float> staging_addr_, staging_pc_, staging_probs_;

  ShardStats stats_;
  std::atomic<bool> admit_{true};  ///< admission gate written by the shard loop
  std::atomic<bool> stop_{false};
  std::atomic<bool> abandon_{false};  ///< watchdog asks the thread to exit now
  std::atomic<bool> running_{false};  ///< thread liveness for the restart handshake
  std::atomic<bool> parked_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::thread thread_;
};

}  // namespace dart::serve
