#include "serve/shard.hpp"

#include <algorithm>
#include <type_traits>

#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "serve/server.hpp"

namespace dart::serve {

namespace {

// The shares_mutable_model() audit (sim/prefetcher.hpp): shards share ONE
// predictor instance across threads with no serialization, which is only
// sound because the tabular query path is const — all mutable state lives
// in the per-shard InferenceWorkspace. The NN baselines (AttentionPrefetcher
// / LstmPrefetcher) cache activations inside forward and would need a lock;
// they are not servable here. This assert pins the contract at compile
// time: if the block query path ever stops being const-invocable, shard
// construction fails to build instead of racing at runtime.
static_assert(
    std::is_invocable_v<decltype(&tabular::TabularPredictor::forward_block_into),
                        const tabular::TabularPredictor&, const float*, const float*, std::size_t,
                        float*, tabular::InferenceWorkspace&>,
    "serve shards require a const (immutable, concurrently shareable) tabular query path");

/// Empty-ring spins before the shard thread parks on its condition variable.
constexpr int kSpinsBeforePark = 256;

/// Poll interval while a stalled/abandoning thread waits to be collected.
constexpr std::chrono::microseconds kStallPoll{50};

}  // namespace

ShardEngine::ShardEngine(std::size_t index, const ServeConfig& config, ModelEpoch initial,
                         const std::atomic<std::uint64_t>& latest_epoch,
                         std::function<ModelEpoch()> reload)
    : index_(index),
      config_(config),
      ingress_(config.queue_capacity),
      latest_epoch_(latest_epoch),
      reload_(std::move(reload)),
      current_(std::move(initial)) {
  if (current_.model == nullptr) {
    throw std::invalid_argument("ShardEngine: null model");
  }
  const nn::ModelConfig& a = current_.model->arch();
  staging_addr_.resize(config_.batch_cap * a.seq_len * a.addr_dim);
  staging_pc_.resize(config_.batch_cap * a.seq_len * a.pc_dim);
  staging_probs_.resize(config_.batch_cap * a.out_dim);
  spawn();
}

ShardEngine::~ShardEngine() { stop(); }

void ShardEngine::spawn() {
  // Set before the launch so a watchdog sweep between here and the first
  // loop iteration sees a live thread, not a restart candidate.
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

bool ShardEngine::submit(const Request& request) {
  // Admission control: above the high watermark the newest work is shed at
  // the door (explicit backpressure) rather than queued past the deadline.
  // The depth check bounds the queue between two shard-loop samples; the
  // loop's gate keeps the hysteresis (closed until depth falls to lo).
  if (config_.watermark_hi != 0 && (!admit_.load(std::memory_order_relaxed) ||
                                    ingress_.size_approx() >= config_.watermark_hi)) {
    stats_.admission_rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (common::fault_injector().reject_submit(index_)) return false;
  if (!ingress_.try_push(request)) return false;
  // Dekker handshake with park(): the push above is the "work" store, the
  // fence orders it against the parked_ load so either we see the parked
  // flag (and wake), or the consumer's post-park recheck sees our element.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_relaxed)) {
    // drop-wake fault: suppress the notify. The 200 us park timeout is the
    // designed backstop — the request is late, never lost.
    if (!common::fault_injector().drop_wake()) {
      std::lock_guard<std::mutex> lock(park_mu_);
      park_cv_.notify_one();
    }
  }
  return true;
}

void ShardEngine::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_one();
  }
  thread_.join();
}

void ShardEngine::mark_stalled() {
  stats_.state.store(static_cast<std::uint32_t>(ShardState::kStalled),
                     std::memory_order_relaxed);
}

void ShardEngine::clear_stalled() {
  std::uint32_t expect = static_cast<std::uint32_t>(ShardState::kStalled);
  stats_.state.compare_exchange_strong(expect,
                                       static_cast<std::uint32_t>(ShardState::kHealthy),
                                       std::memory_order_relaxed);
}

bool ShardEngine::try_restart(std::uint64_t grace_us) {
  if (!thread_.joinable()) return false;
  abandon_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_one();
  }
  const std::uint64_t deadline = now_ns() + grace_us * 1000ULL;
  while (running_.load(std::memory_order_acquire) && now_ns() < deadline) {
    std::this_thread::sleep_for(kStallPoll);
  }
  if (running_.load(std::memory_order_acquire)) {
    // Truly wedged (not even the abandon checkpoints run). Withdraw the
    // request so the thread resumes serving if it ever unsticks; the
    // watchdog retries on its next sweep.
    abandon_.store(false, std::memory_order_release);
    return false;
  }
  thread_.join();
  abandon_.store(false, std::memory_order_release);
  stats_.watchdog_restarts.fetch_add(1, std::memory_order_relaxed);
  stats_.state.store(static_cast<std::uint32_t>(ShardState::kHealthy),
                     std::memory_order_relaxed);
  // The successor inherits the ingress ring (queued requests survive the
  // restart) and re-adopts the latest published epoch at its first batch.
  spawn();
  return true;
}

void ShardEngine::park() {
  parked_.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Recheck after publishing the flag: a producer that pushed before seeing
  // parked_ is caught here; one that pushed after will notify. The timeout
  // is a belt-and-braces backstop, not a correctness requirement (and the
  // recovery path the drop-wake fault leans on).
  if (ingress_.size_approx() == 0 && !stop_.load(std::memory_order_acquire) &&
      !abandon_.load(std::memory_order_acquire)) {
    std::unique_lock<std::mutex> lock(park_mu_);
    park_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
  parked_.store(false, std::memory_order_relaxed);
}

void ShardEngine::maybe_adopt_epoch() {
  if (latest_epoch_.load(std::memory_order_acquire) == current_.epoch) return;
  ModelEpoch next = reload_();
  if (next.model == nullptr || next.epoch == current_.epoch) return;
  current_ = std::move(next);  // old epoch retires when its last ref drops
  // The new model may be larger (e.g. DART-S -> DART-L); grow the arena at
  // this batch boundary, never mid-block. The arena only ever grows, so a
  // smaller model simply leaves slack.
  workspace_.ensure(current_.model->tabular_arch(config_.batch_cap));
  stats_.reloads.fetch_add(1, std::memory_order_relaxed);
}

void ShardEngine::update_admission() {
  if (config_.watermark_hi == 0) return;
  const std::size_t depth = ingress_.size_approx();
  // Admission gate with hysteresis: close at hi, reopen only at lo.
  const bool admitting = admit_.load(std::memory_order_relaxed);
  if (admitting && depth >= config_.watermark_hi) {
    admit_.store(false, std::memory_order_relaxed);
  } else if (!admitting && depth <= config_.watermark_lo) {
    admit_.store(true, std::memory_order_relaxed);
  }
}

void ShardEngine::run() {
  if (config_.pin_threads) common::pin_current_thread(index_);
  // Size the arena once for the largest batch; hot-swaps re-ensure (the
  // arena only ever grows, so a larger model never overflows mid-batch).
  workspace_.ensure(current_.model->tabular_arch(config_.batch_cap));

  std::vector<Request> batch(config_.batch_cap);
  int idle_spins = 0;
  for (;;) {
    stats_.heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (abandon_.load(std::memory_order_acquire)) break;
    update_admission();
    std::size_t n = 0;
    while (n < config_.batch_cap && ingress_.try_pop(batch[n])) ++n;
    if (n == 0) {
      if (stop_.load(std::memory_order_acquire)) {
        // Producers are quiesced by the stop() contract; one failed pop
        // after the stop flag means the ring is drained for good.
        break;
      }
      if (++idle_spins >= kSpinsBeforePark) {
        park();
        idle_spins = 0;
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    idle_spins = 0;
    // Serve what the ring held without waiting for more: under load, the
    // requests that arrive while this batch computes form the next one.
    maybe_adopt_epoch();

    // Fault hooks fire where real pathologies bite: after batch assembly,
    // before the deadline sweep — a slow or stalled shard ages its queue.
    const common::BatchFault fault = common::fault_injector().on_batch(index_);
    if (fault.delay_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(fault.delay_us));
    }
    if (fault.stall) {
      // Heartbeat stops here: the watchdog must notice, abandon this
      // thread, and respawn. stop_ is honored too so shutdown never hangs
      // on an armed stall.
      while (!abandon_.load(std::memory_order_acquire) &&
             !stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(kStallPoll);
      }
    }
    if (abandon_.load(std::memory_order_acquire)) {
      // Complete held work as explicitly shed — never silently lost — and
      // leave the ring for the successor thread.
      for (std::size_t i = 0; i < n; ++i) shed_request(batch[i], /*deadline_missed=*/false);
      break;
    }

    // Deadline sweep: expired requests are shed before any model work is
    // spent on them; survivors keep their submission order.
    const std::uint64_t now = now_ns();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (batch[i].deadline_ns != 0 && now > batch[i].deadline_ns) {
        shed_request(batch[i], /*deadline_missed=*/true);
      } else {
        if (kept != i) batch[kept] = batch[i];
        ++kept;
      }
    }
    if (kept > 0) serve_batch(batch.data(), kept);
  }
  running_.store(false, std::memory_order_release);
}

void ShardEngine::serve_batch(Request* batch, std::size_t n) {
  const tabular::TabularPredictor& model = *current_.model;
  const nn::ModelConfig& a = model.arch();
  const std::size_t addr_elems = a.seq_len * a.addr_dim;
  const std::size_t pc_elems = a.seq_len * a.pc_dim;

  // Gather scattered client feature buffers into the contiguous staging
  // block the layer-major query path requires.
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(batch[i].addr, batch[i].addr + addr_elems, staging_addr_.data() + i * addr_elems);
    std::copy(batch[i].pc, batch[i].pc + pc_elems, staging_pc_.data() + i * pc_elems);
  }
  model.forward_block_into(staging_addr_.data(), staging_pc_.data(), n, staging_probs_.data(),
                           workspace_);

  const std::uint64_t done_ns = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(staging_probs_.data() + i * a.out_dim, staging_probs_.data() + (i + 1) * a.out_dim,
              batch[i].probs_out);
    Response r;
    r.trace_id = batch[i].trace_id;
    r.epoch = current_.epoch;
    r.probs = batch[i].probs_out;
    r.status = Response::Status::kOk;
    // The client sizes its in-flight window <= completion capacity, so a
    // full egress ring is transient (client mid-drain); spin it out.
    while (!batch[i].completions->try_push(r)) {
      stats_.completion_retries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
    stats_.latency.record(done_ns > batch[i].enqueue_ns ? done_ns - batch[i].enqueue_ns : 0);
  }

  stats_.requests.fetch_add(n, std::memory_order_relaxed);
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  stats_.occupancy_sum.fetch_add(n, std::memory_order_relaxed);
  if (n == config_.batch_cap) stats_.full_batches.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t depth = ingress_.size_approx();
  stats_.queue_depth_sum.fetch_add(depth, std::memory_order_relaxed);
  if (depth > stats_.queue_depth_max.load(std::memory_order_relaxed)) {
    stats_.queue_depth_max.store(depth, std::memory_order_relaxed);
  }
}

void ShardEngine::shed_request(const Request& req, bool deadline_missed) {
  Response r;
  r.trace_id = req.trace_id;
  r.epoch = current_.epoch;
  r.probs = req.probs_out;  // identifies the slot; carries no result
  r.status = Response::Status::kShed;
  while (!req.completions->try_push(r)) {
    stats_.completion_retries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
  stats_.shed.fetch_add(1, std::memory_order_relaxed);
  if (deadline_missed) stats_.deadline_missed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace dart::serve
