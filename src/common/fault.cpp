#include "common/fault.hpp"

#include <limits>
#include <list>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/timer.hpp"

namespace dart::common {

namespace {

/// The value of a parameter the clause must carry, at most `max`.
std::uint64_t required_uint(Spec& clause, const std::string& key,
                            std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (!clause.has(key)) clause.fail("missing required parameter '" + key + "'");
  return clause.get_uint(key, 0, max);
}

/// The clause's required `p=`, a probability in [0, 1].
double required_probability(Spec& clause) {
  if (!clause.has("p")) clause.fail("missing required parameter 'p'");
  const double p = clause.get_double("p", 0.0);
  if (p > 1.0) clause.fail("parameter 'p' is not a probability in [0, 1]");
  return p;
}

/// The clause's required `match=` substring.
std::string required_match(Spec& clause) {
  if (!clause.has("match")) clause.fail("missing required parameter 'match'");
  return clause.get_string("match", "");
}

/// Deterministic Bernoulli draw: counter-based SplitMix64
/// (common::counter_u01), so the decision sequence depends only on
/// (seed, draw index), never on thread timing.
bool draw(double p, std::uint64_t seed, std::atomic<std::uint64_t>& counter) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return common::counter_u01(seed, n) < p;
}

}  // namespace

/// The armed plan: immutable clause parameters plus mutable per-clause fire
/// budgets (atomics; the plan object is shared as const by the hooks).
/// Clause lists use std::list so the atomics are constructed in place and
/// never moved.
struct FaultInjector::Plan {
  struct SlowShard {
    std::size_t shard = 0;
    std::uint64_t us = 0;
    std::uint64_t batches = 0;  ///< 0 = every batch
    mutable std::atomic<std::uint64_t> fired{0};
  };
  struct StallShard {
    std::size_t shard = 0;
    std::uint64_t after = 0;  ///< trigger on the (after+1)-th batch
    mutable std::atomic<std::uint64_t> seen{0};
  };
  struct DropWake {
    double p = 0.0;
    std::uint64_t seed = 42;
    mutable std::atomic<std::uint64_t> draws{0};
  };
  struct RejectSubmit {
    double p = 0.0;
    std::uint64_t seed = 42;
    std::int64_t shard = -1;  ///< -1 = all shards
    mutable std::atomic<std::uint64_t> draws{0};
  };
  struct MutateArtifact {
    bool truncate = false;
    std::uint64_t arg = 0;    ///< byte offset (corrupt) or byte count (truncate)
    std::uint64_t count = 1;  ///< reads affected before the clause expires
    mutable std::atomic<std::uint64_t> used{0};
  };
  struct FailCell {
    std::string match;        ///< substring of the "app|prefetcher" label
    std::uint64_t times = 0;  ///< matching attempts failed; 0 = forever
    mutable std::atomic<std::uint64_t> fired{0};
  };
  struct SlowCell {
    std::string match;
    std::uint64_t ms = 0;
    std::uint64_t times = 0;  ///< matching attempts delayed; 0 = forever
    mutable std::atomic<std::uint64_t> fired{0};
  };
  struct MutateStore {
    std::uint64_t bytes = 0;  ///< tail bytes chopped off the segment image
    std::uint64_t count = 1;  ///< opens affected before the clause expires
    mutable std::atomic<std::uint64_t> used{0};
  };
  struct CrashAfterCommit {
    std::uint64_t after = 1;  ///< fire right after this commit ordinal
    bool hard = false;        ///< _Exit instead of throwing
    mutable std::atomic<std::uint64_t> commits{0};
  };

  std::list<SlowShard> slow;
  std::list<StallShard> stall;
  std::list<DropWake> drop_wake;
  std::list<RejectSubmit> reject;
  std::list<MutateArtifact> mutate;
  std::list<FailCell> fail_cell;
  std::list<SlowCell> slow_cell;
  std::list<MutateStore> mutate_store;
  std::list<CrashAfterCommit> crash;
};

void FaultInjector::install(const std::string& spec) {
  const std::vector<std::string> clauses = split_spec_list(spec);
  auto plan = std::make_shared<Plan>();
  for (const std::string& text : clauses) {
    Spec s = Spec::parse(text, ':', "DART_FAULT");
    const std::string& kind = s.name();
    if (kind == "slow-shard") {
      auto& c = plan->slow.emplace_back();
      c.shard = static_cast<std::size_t>(required_uint(s, "shard"));
      // Past these bounds the injected sleep's duration wraps.
      c.us = required_uint(s, "us", kMaxTimerSeconds * 1000 * 1000);
      c.batches = s.get_uint("batches", 0);
    } else if (kind == "stall-shard") {
      auto& c = plan->stall.emplace_back();
      c.shard = static_cast<std::size_t>(required_uint(s, "shard"));
      c.after = s.get_uint("after", 0);
    } else if (kind == "drop-wake") {
      auto& c = plan->drop_wake.emplace_back();
      c.p = required_probability(s);
      c.seed = s.get_uint("seed", 42);
    } else if (kind == "reject-submit") {
      auto& c = plan->reject.emplace_back();
      c.p = required_probability(s);
      c.seed = s.get_uint("seed", 42);
      if (s.has("shard")) c.shard = static_cast<std::int64_t>(s.get_uint("shard", 0));
    } else if (kind == "corrupt-artifact" || kind == "truncate-artifact") {
      auto& c = plan->mutate.emplace_back();
      c.truncate = kind == "truncate-artifact";
      c.arg = required_uint(s, c.truncate ? "bytes" : "offset");
      c.count = s.get_uint("count", 1);
    } else if (kind == "fail-cell") {
      auto& c = plan->fail_cell.emplace_back();
      c.match = required_match(s);
      c.times = s.get_uint("times", 0);
    } else if (kind == "slow-cell") {
      auto& c = plan->slow_cell.emplace_back();
      c.match = required_match(s);
      c.ms = required_uint(s, "ms", kMaxTimerSeconds * 1000);
      c.times = s.get_uint("times", 0);
    } else if (kind == "corrupt-store-tail") {
      auto& c = plan->mutate_store.emplace_back();
      c.bytes = required_uint(s, "bytes");
      if (c.bytes == 0) s.fail("parameter 'bytes' must be positive");
      c.count = s.get_uint("count", 1);
    } else if (kind == "crash-after-commit") {
      auto& c = plan->crash.emplace_back();
      c.after = required_uint(s, "after");
      if (c.after == 0) s.fail("parameter 'after' must be positive");
      c.hard = s.get_uint("hard", 0) != 0;
    } else {
      s.fail("unknown fault kind '" + kind + "'");
    }
    s.reject_unused();
  }

  const bool empty = clauses.empty();
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = empty ? nullptr : std::move(plan);
  slow_batches_.store(0, std::memory_order_relaxed);
  stalls_.store(0, std::memory_order_relaxed);
  wakes_dropped_.store(0, std::memory_order_relaxed);
  submits_rejected_.store(0, std::memory_order_relaxed);
  artifacts_mutated_.store(0, std::memory_order_relaxed);
  cells_failed_.store(0, std::memory_order_relaxed);
  cells_delayed_.store(0, std::memory_order_relaxed);
  stores_mutated_.store(0, std::memory_order_relaxed);
  crashes_.store(0, std::memory_order_relaxed);
  armed_.store(!empty, std::memory_order_release);
}

void FaultInjector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = nullptr;
  armed_.store(false, std::memory_order_release);
}

std::shared_ptr<const FaultInjector::Plan> FaultInjector::plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

BatchFault FaultInjector::on_batch(std::size_t shard) {
  BatchFault fault;
  if (!armed()) return fault;
  const auto p = plan();
  if (!p) return fault;
  for (const auto& c : p->slow) {
    if (c.shard != shard) continue;
    if (c.batches != 0 && c.fired.fetch_add(1, std::memory_order_relaxed) >= c.batches) continue;
    fault.delay_us += c.us;
    slow_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  for (const auto& c : p->stall) {
    if (c.shard != shard) continue;
    // Exactly-once: only the (after+1)-th batch observed on this shard
    // trips the stall; the respawned thread's batches count past it.
    if (c.seen.fetch_add(1, std::memory_order_relaxed) == c.after) {
      fault.stall = true;
      stalls_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return fault;
}

bool FaultInjector::drop_wake() {
  if (!armed()) return false;
  const auto p = plan();
  if (!p) return false;
  for (const auto& c : p->drop_wake) {
    if (draw(c.p, c.seed, c.draws)) {
      wakes_dropped_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool FaultInjector::reject_submit(std::size_t shard) {
  if (!armed()) return false;
  const auto p = plan();
  if (!p) return false;
  for (const auto& c : p->reject) {
    if (c.shard >= 0 && static_cast<std::size_t>(c.shard) != shard) continue;
    if (draw(c.p, c.seed, c.draws)) {
      submits_rejected_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void FaultInjector::mutate_artifact(std::vector<std::uint8_t>& bytes) {
  if (!armed()) return;
  const auto p = plan();
  if (!p) return;
  bool mutated = false;
  for (const auto& c : p->mutate) {
    if (c.used.fetch_add(1, std::memory_order_relaxed) >= c.count) continue;
    if (c.truncate) {
      bytes.resize(bytes.size() > c.arg ? bytes.size() - static_cast<std::size_t>(c.arg) : 0);
      mutated = true;
    } else if (c.arg < bytes.size()) {
      bytes[static_cast<std::size_t>(c.arg)] ^= 0xFF;
      mutated = true;
    }
  }
  if (mutated) artifacts_mutated_.fetch_add(1, std::memory_order_relaxed);
}

CellFault FaultInjector::on_cell(const std::string& label) {
  CellFault fault;
  if (!armed()) return fault;
  const auto p = plan();
  if (!p) return fault;
  for (const auto& c : p->slow_cell) {
    if (label.find(c.match) == std::string::npos) continue;
    if (c.times != 0 && c.fired.fetch_add(1, std::memory_order_relaxed) >= c.times) continue;
    fault.delay_ms += c.ms;
    cells_delayed_.fetch_add(1, std::memory_order_relaxed);
  }
  for (const auto& c : p->fail_cell) {
    if (label.find(c.match) == std::string::npos) continue;
    if (c.times != 0 && c.fired.fetch_add(1, std::memory_order_relaxed) >= c.times) continue;
    fault.fail = true;
    cells_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  return fault;
}

void FaultInjector::mutate_store(std::vector<std::uint8_t>& bytes) {
  if (!armed()) return;
  const auto p = plan();
  if (!p) return;
  bool mutated = false;
  for (const auto& c : p->mutate_store) {
    if (c.used.fetch_add(1, std::memory_order_relaxed) >= c.count) continue;
    bytes.resize(bytes.size() > c.bytes ? bytes.size() - static_cast<std::size_t>(c.bytes) : 0);
    mutated = true;
  }
  if (mutated) stores_mutated_.fetch_add(1, std::memory_order_relaxed);
}

CrashAction FaultInjector::on_store_commit() {
  if (!armed()) return CrashAction::kNone;
  const auto p = plan();
  if (!p) return CrashAction::kNone;
  for (const auto& c : p->crash) {
    // Exactly-once: only the commit whose ordinal equals `after` trips the
    // crash; a resumed sweep's commits count past it.
    if (c.commits.fetch_add(1, std::memory_order_relaxed) + 1 == c.after) {
      crashes_.fetch_add(1, std::memory_order_relaxed);
      return c.hard ? CrashAction::kExit : CrashAction::kThrow;
    }
  }
  return CrashAction::kNone;
}

FaultCounters FaultInjector::counters() const {
  FaultCounters c;
  c.slow_batches = slow_batches_.load(std::memory_order_relaxed);
  c.stalls = stalls_.load(std::memory_order_relaxed);
  c.wakes_dropped = wakes_dropped_.load(std::memory_order_relaxed);
  c.submits_rejected = submits_rejected_.load(std::memory_order_relaxed);
  c.artifacts_mutated = artifacts_mutated_.load(std::memory_order_relaxed);
  c.cells_failed = cells_failed_.load(std::memory_order_relaxed);
  c.cells_delayed = cells_delayed_.load(std::memory_order_relaxed);
  c.stores_mutated = stores_mutated_.load(std::memory_order_relaxed);
  c.crashes = crashes_.load(std::memory_order_relaxed);
  return c;
}

FaultInjector& fault_injector() {
  static FaultInjector instance;
  return instance;
}

}  // namespace dart::common
