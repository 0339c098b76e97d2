#include "common/fault.hpp"

#include <limits>
#include <list>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/timer.hpp"

namespace dart::common {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  std::size_t e = s.find_last_not_of(" \t");
  return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

[[noreturn]] void bad_spec(const std::string& what) { throw InputError("DART_FAULT: " + what); }

/// How a parameter's value error names it, e.g. "DART_FAULT: slow-cell: parameter 'ms'".
std::string param_name(const FaultSpec& spec, const std::string& key) {
  return "DART_FAULT: " + spec.kind + ": parameter '" + key + "'";
}

double parse_probability(const FaultSpec& spec, const std::string& key, const std::string& value) {
  const std::string name = param_name(spec, key);
  const double p = parse_double(name, value);
  if (p > 1.0) throw InputError(name + ": " + value + " is not a probability in [0, 1]");
  return p;
}

/// Looks up `key`; returns whether present, value in `out`.
bool find_param(const FaultSpec& spec, const std::string& key, std::string& out) {
  for (const auto& [k, v] : spec.params) {
    if (k == key) {
      out = v;
      return true;
    }
  }
  return false;
}

void require_known_params(const FaultSpec& spec, std::initializer_list<const char*> known) {
  for (const auto& [k, v] : spec.params) {
    bool ok = false;
    for (const char* name : known) ok = ok || (k == name);
    if (!ok) bad_spec(spec.kind + ": unknown parameter '" + k + "'");
  }
}

std::uint64_t required_u64(const FaultSpec& spec, const std::string& key,
                           std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::string v;
  if (!find_param(spec, key, v)) bad_spec(spec.kind + ": missing required parameter '" + key + "'");
  return parse_uint(param_name(spec, key), v, max);
}

std::uint64_t optional_u64(const FaultSpec& spec, const std::string& key, std::uint64_t fallback) {
  std::string v;
  return find_param(spec, key, v) ? parse_uint(param_name(spec, key), v) : fallback;
}

std::string required_str(const FaultSpec& spec, const std::string& key) {
  std::string v;
  if (!find_param(spec, key, v)) bad_spec(spec.kind + ": missing required parameter '" + key + "'");
  if (v.empty()) bad_spec(spec.kind + ": parameter '" + key + "' must not be empty");
  return v;
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

std::vector<FaultSpec> parse_fault_specs(const std::string& text) {
  std::vector<FaultSpec> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(';', start);
    if (end == std::string::npos) end = text.size();
    const std::string clause = trim(text.substr(start, end - start));
    start = end + 1;
    if (clause.empty()) continue;

    FaultSpec spec;
    const std::size_t colon = clause.find(':');
    spec.kind = trim(clause.substr(0, colon));
    if (spec.kind.empty()) bad_spec("empty fault kind in '" + clause + "'");
    if (colon != std::string::npos) {
      std::size_t p = colon + 1;
      while (p <= clause.size()) {
        std::size_t q = clause.find(',', p);
        if (q == std::string::npos) q = clause.size();
        const std::string param = trim(clause.substr(p, q - p));
        p = q + 1;
        if (param.empty()) continue;
        const std::size_t eq = param.find('=');
        if (eq == std::string::npos || eq == 0) {
          bad_spec(spec.kind + ": parameter '" + param + "' is not key=value");
        }
        spec.params.emplace_back(trim(param.substr(0, eq)), trim(param.substr(eq + 1)));
      }
    }
    out.push_back(std::move(spec));
  }
  return out;
}

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
  const std::vector<FaultSpec> specs = parse_fault_specs(spec);
  auto plan = std::make_shared<Plan>();
  for (const FaultSpec& s : specs) {
    if (s.kind == "slow-shard") {
      require_known_params(s, {"shard", "us", "batches"});
      auto& c = plan->slow.emplace_back();
      c.shard = static_cast<std::size_t>(required_u64(s, "shard"));
      // Past these bounds the injected sleep's duration wraps.
      c.us = required_u64(s, "us", kMaxTimerSeconds * 1000 * 1000);
      c.batches = optional_u64(s, "batches", 0);
    } else if (s.kind == "stall-shard") {
      require_known_params(s, {"shard", "after"});
      auto& c = plan->stall.emplace_back();
      c.shard = static_cast<std::size_t>(required_u64(s, "shard"));
      c.after = optional_u64(s, "after", 0);
    } else if (s.kind == "drop-wake") {
      require_known_params(s, {"p", "seed"});
      std::string v;
      if (!find_param(s, "p", v)) bad_spec("drop-wake: missing required parameter 'p'");
      auto& c = plan->drop_wake.emplace_back();
      c.p = parse_probability(s, "p", v);
      c.seed = optional_u64(s, "seed", 42);
    } else if (s.kind == "reject-submit") {
      require_known_params(s, {"p", "seed", "shard"});
      std::string v;
      if (!find_param(s, "p", v)) bad_spec("reject-submit: missing required parameter 'p'");
      auto& c = plan->reject.emplace_back();
      c.p = parse_probability(s, "p", v);
      c.seed = optional_u64(s, "seed", 42);
      std::string sh;
      if (find_param(s, "shard", sh)) {
        c.shard = static_cast<std::int64_t>(parse_uint(param_name(s, "shard"), sh));
      }
    } else if (s.kind == "corrupt-artifact") {
      require_known_params(s, {"offset", "count"});
      auto& c = plan->mutate.emplace_back();
      c.truncate = false;
      c.arg = required_u64(s, "offset");
      c.count = optional_u64(s, "count", 1);
    } else if (s.kind == "truncate-artifact") {
      require_known_params(s, {"bytes", "count"});
      auto& c = plan->mutate.emplace_back();
      c.truncate = true;
      c.arg = required_u64(s, "bytes");
      c.count = optional_u64(s, "count", 1);
    } else if (s.kind == "fail-cell") {
      require_known_params(s, {"match", "times"});
      auto& c = plan->fail_cell.emplace_back();
      c.match = required_str(s, "match");
      c.times = optional_u64(s, "times", 0);
    } else if (s.kind == "slow-cell") {
      require_known_params(s, {"match", "ms", "times"});
      auto& c = plan->slow_cell.emplace_back();
      c.match = required_str(s, "match");
      c.ms = required_u64(s, "ms", kMaxTimerSeconds * 1000);
      c.times = optional_u64(s, "times", 0);
    } else if (s.kind == "corrupt-store-tail") {
      require_known_params(s, {"bytes", "count"});
      auto& c = plan->mutate_store.emplace_back();
      c.bytes = required_u64(s, "bytes");
      if (c.bytes == 0) bad_spec("corrupt-store-tail: 'bytes' must be positive");
      c.count = optional_u64(s, "count", 1);
    } else if (s.kind == "crash-after-commit") {
      require_known_params(s, {"after", "hard"});
      auto& c = plan->crash.emplace_back();
      c.after = required_u64(s, "after");
      if (c.after == 0) bad_spec("crash-after-commit: 'after' must be positive");
      c.hard = optional_u64(s, "hard", 0) != 0;
    } else {
      bad_spec("unknown fault kind '" + s.kind + "'");
    }
  }

  const bool empty = specs.empty();
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
