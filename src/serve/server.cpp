#include "serve/server.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/fault.hpp"
#include "common/text.hpp"
#include "core/artifact_cache.hpp"
#include "io/artifact.hpp"

namespace dart::serve {

namespace {

/// Geometry contract for hot-swap: client feature/output buffers are sized
/// to the serving model, so every published epoch must agree on them.
void check_geometry(const nn::ModelConfig& a, const nn::ModelConfig& b) {
  if (a.seq_len != b.seq_len || a.addr_dim != b.addr_dim || a.pc_dim != b.pc_dim ||
      a.out_dim != b.out_dim) {
    throw std::invalid_argument(
        "PrefetchServer: new model's input/output geometry (T, addr_dim, pc_dim, out_dim) "
        "does not match the serving model");
  }
}

/// Rejects the config values that size threads, rings and batch buffers,
/// and the timers, when they exceed their bounds.
void check_bounds(const ServeConfig& c) {
  auto bound = [](const char* field, std::uint64_t value, std::uint64_t max) {
    common::check_at_most(std::string("PrefetchServer: ") + field, value, max);
  };
  bound("shards", c.shards, kMaxShards);
  bound("queue_capacity", c.queue_capacity, kMaxRingCapacity);
  bound("completion_capacity", c.completion_capacity, kMaxRingCapacity);
  bound("batch_cap", c.batch_cap, kMaxRingCapacity);
  // Past these the deadline stamp and the watchdog's sleep would wrap.
  bound("deadline_us", c.deadline_us, common::kMaxTimerSeconds * 1000 * 1000);
  bound("watchdog_ms", c.watchdog_ms, common::kMaxTimerSeconds * 1000);
}

}  // namespace

ServeConfig ServeConfig::from_env() {
  ServeConfig c;
  // A malformed knob's error names the config field too, as check_bounds
  // does for a value past its bound.
  auto knob = [](const char* name, const char* field, std::uint64_t fallback) {
    try {
      return common::env_uint(name, fallback);
    } catch (const common::InputError& e) {
      throw common::InputError(std::string(e.what()) + " (ServeConfig::" + field + ")");
    }
  };
  c.shards = knob("DART_SERVE_SHARDS", "shards", 0);
  c.queue_capacity = knob("DART_SERVE_QUEUE", "queue_capacity", c.queue_capacity);
  c.batch_cap = knob("DART_SERVE_BATCH", "batch_cap", c.batch_cap);
  c.pin_threads = knob("DART_SERVE_PIN", "pin_threads", 0) != 0;
  c.deadline_us = knob("DART_SERVE_DEADLINE_US", "deadline_us", c.deadline_us);
  c.watermark_hi = knob("DART_SERVE_WATERMARK_HI", "watermark_hi", c.watermark_hi);
  c.watermark_lo = knob("DART_SERVE_WATERMARK_LO", "watermark_lo", c.watermark_lo);
  c.watchdog_ms = knob("DART_SERVE_WATCHDOG_MS", "watchdog_ms", c.watchdog_ms);
  return c;
}

PrefetchServer::PrefetchServer(std::shared_ptr<const tabular::TabularPredictor> model,
                               const ServeConfig& config)
    : config_(config), ids_(default_id_generator(config.id_seed)) {
  if (model == nullptr) throw std::invalid_argument("PrefetchServer: null model");
  check_bounds(config_);
  if (config_.shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    config_.shards = hw == 0 ? 1 : hw;
  }
  if (config_.batch_cap == 0) config_.batch_cap = 1;
  if (config_.watermark_hi != 0 && config_.watermark_lo == 0) {
    config_.watermark_lo = config_.watermark_hi / 2;
  }
  model_ = ModelEpoch{std::move(model), epoch_.load(std::memory_order_relaxed)};
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<ShardEngine>(i, config_, current_model(), epoch_,
                                                    [this] { return current_model(); }));
  }
  if (config_.watchdog_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

PrefetchServer::PrefetchServer(const std::string& path, const ServeConfig& config)
    : PrefetchServer(core::load_dart_artifact(path).predictor, config) {}

PrefetchServer::~PrefetchServer() { stop(); }

std::unique_ptr<ClientSession> PrefetchServer::connect(std::size_t completion_capacity) {
  if (completion_capacity == 0) completion_capacity = config_.completion_capacity;
  const std::size_t shard =
      next_client_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  // Not make_unique: the constructor is private to this friend.
  return std::unique_ptr<ClientSession>(
      new ClientSession(*this, shard, completion_capacity, ids_));
}

std::uint64_t PrefetchServer::swap_model(
    std::shared_ptr<const tabular::TabularPredictor> model) {
  if (model == nullptr) throw std::invalid_argument("PrefetchServer: null model");
  std::lock_guard<std::mutex> lock(model_mu_);
  check_geometry(model_.model->arch(), model->arch());
  const std::uint64_t next = model_.epoch + 1;
  model_ = ModelEpoch{std::move(model), next};
  // Publish after the model is in place: a shard seeing the new epoch
  // number takes model_mu_ in current_model() and reads a complete record.
  epoch_.store(next, std::memory_order_release);
  return next;
}

std::uint64_t PrefetchServer::swap_artifact(const std::string& path) {
  std::uint64_t backoff_us = config_.reload_backoff_us == 0 ? 1 : config_.reload_backoff_us;
  for (std::size_t attempt = 0;; ++attempt) {
    std::shared_ptr<const tabular::TabularPredictor> predictor;
    try {
      // Validate-then-publish: read the whole image, then parse, checksum
      // and (below, in swap_model) geometry-check it before any shard can
      // observe the new epoch.
      std::vector<std::uint8_t> bytes = io::read_artifact_file(path);
      common::fault_injector().mutate_artifact(bytes);
      predictor = core::load_dart_artifact_bytes(std::move(bytes), path).predictor;
    } catch (const io::ArtifactError&) {
      // Quarantine: the previous epoch keeps serving. Transient damage
      // (half-written file mid-copy) deserves a bounded retry with backoff.
      reload_rejected_.fetch_add(1, std::memory_order_relaxed);
      if (attempt >= config_.reload_retries) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us *= 2;
      continue;
    }
    try {
      return swap_model(std::move(predictor));
    } catch (const std::invalid_argument&) {
      // Geometry mismatch is deterministic — no retry can fix it.
      reload_rejected_.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }
}

ModelEpoch PrefetchServer::current_model() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

nn::ModelConfig PrefetchServer::arch() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_.model->arch();
}

void PrefetchServer::watchdog_loop() {
  const std::uint64_t grace_us = static_cast<std::uint64_t>(config_.watchdog_ms) * 1000ULL;
  std::vector<std::uint64_t> last_heartbeat(shards_.size(), 0);
  std::vector<std::size_t> misses(shards_.size(), 0);
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    if (watchdog_cv_.wait_for(lock, std::chrono::milliseconds(config_.watchdog_ms),
                              [this] { return watchdog_stop_; })) {
      return;
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::uint64_t hb = shards_[i]->stats().heartbeat.load(std::memory_order_relaxed);
      if (hb != last_heartbeat[i]) {
        last_heartbeat[i] = hb;
        misses[i] = 0;
        // Self-heal: a shard declared stalled that resumed on its own (it
        // was descheduled, not wedged) goes back to Healthy untouched.
        shards_[i]->clear_stalled();
        continue;
      }
      if (++misses[i] < config_.watchdog_miss_budget) continue;
      // Heartbeat flat for the whole miss budget: declare the stall, then
      // drain/restart the thread. Held requests are shed (never lost), the
      // ingress ring survives, and the successor re-adopts the latest
      // epoch at its first batch boundary.
      shards_[i]->mark_stalled();
      if (shards_[i]->try_restart(grace_us)) {
        misses[i] = 0;
        last_heartbeat[i] = shards_[i]->stats().heartbeat.load(std::memory_order_relaxed);
      }
      // On failure the shard stays Stalled and the next sweep retries.
    }
  }
}

void PrefetchServer::stop() {
  // Watchdog first: a restart racing the shard joins below could respawn a
  // thread stop() would never see.
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_one();
    watchdog_.join();
  }
  for (auto& shard : shards_) shard->stop();
}

ServeStatsSummary PrefetchServer::stats() const {
  ServeStatsSummary summary;
  LatencyHistogram merged;
  std::uint64_t occupancy = 0;
  for (const auto& shard : shards_) {
    ShardStatsSnapshot s = snapshot(shard->stats());
    summary.requests += s.requests;
    summary.batches += s.batches;
    summary.shed += s.shed;
    summary.deadline_missed += s.deadline_missed;
    summary.admission_rejected += s.admission_rejected;
    summary.watchdog_restarts += s.watchdog_restarts;
    if (s.state != ShardState::kHealthy) summary.all_healthy = false;
    occupancy += s.occupancy_sum;
    merged.merge(shard->stats().latency);
    summary.shards.push_back(s);
  }
  summary.reload_rejected = reload_rejected_.load(std::memory_order_relaxed);
  summary.p50_ns = merged.quantile(0.50);
  summary.p99_ns = merged.quantile(0.99);
  summary.avg_batch =
      summary.batches == 0 ? 0.0 : static_cast<double>(occupancy) / static_cast<double>(summary.batches);
  return summary;
}

std::uint64_t ClientSession::submit(const float* addr, const float* pc, float* probs_out) {
  Request r;
  r.trace_id = ids_->trace_id();
  r.addr = addr;
  r.pc = pc;
  r.probs_out = probs_out;
  r.completions = &completions_;
  r.enqueue_ns = now_ns();
  if (server_.config_.deadline_us != 0) {
    r.deadline_ns = r.enqueue_ns + server_.config_.deadline_us * 1000ULL;
  }
  if (!server_.shards_[shard_]->submit(r)) return 0;
  ++in_flight_;
  return r.trace_id;
}

bool ClientSession::poll(Response& out) {
  if (!completions_.try_pop(out)) return false;
  --in_flight_;
  return true;
}

}  // namespace dart::serve
