// Deterministic fault injection shared by the serving layer (DESIGN.md §11)
// and the sweep engine (DESIGN.md §13).
//
// A process-global registry parses a semicolon-separated spec string (the
// `DART_FAULT` environment variable) into an immutable fault plan and
// exposes cheap hooks the hot paths call at well-defined points: batch
// assembly in `serve::ShardEngine::run`, the submit wake handshake, ingress
// admission, the artifact bytes read by `PrefetchServer::swap_artifact`,
// sweep-cell attempt starts in `core::ExperimentRunner`, and the
// result-store open/commit path in `core::ResultStore`. When no plan is
// armed every hook is a single relaxed atomic load, so the hooks stay in
// production builds and chaos tests exercise the exact binary that ships.
//
// Probabilistic faults draw from a counter-based SplitMix64 stream
// (`common::counter_u01`), so a given spec produces the same fault schedule
// on every run regardless of thread interleaving — the property
// `tests/serve_chaos_test.cpp` and `tests/sweep_chaos_test.cpp` build
// their assertions on.
//
// A spec is a ';'-separated list of clauses, each in the one spec grammar
// of common::Spec (DESIGN.md §4) with ':' after the kind, e.g.
// "slow-shard:shard=0,us=500;drop-wake:p=0.1". Serving-path kinds:
//
//   slow-shard:shard=N,us=U[,batches=B]   delay each batch on shard N by U
//                                         microseconds (first B batches;
//                                         B=0 or absent: every batch)
//   stall-shard:shard=N[,after=B]         after B more batches, shard N
//                                         stops heartbeating until the
//                                         watchdog abandons its thread
//   drop-wake:p=P[,seed=S]                drop the submit-side park wake
//                                         with probability P (the 200us
//                                         park timeout is the backstop)
//   reject-submit:p=P[,seed=S,shard=N]    fail ingress admission with
//                                         probability P (shard absent: all)
//   corrupt-artifact:offset=O[,count=N]   XOR-flip the byte at offset O of
//                                         the next N artifact reads
//   truncate-artifact:bytes=N[,count=C]   drop the last N bytes of the next
//                                         C artifact reads
//
// Sweep-path kinds:
//
//   fail-cell:match=SUB[,times=N]         throw from every sweep-cell
//                                         attempt whose "app|prefetcher"
//                                         label contains SUB (first N
//                                         attempts; N=0 or absent: forever)
//   slow-cell:match=SUB,ms=M[,times=N]    delay matching cell attempts by
//                                         M milliseconds (drives the
//                                         wall-clock timeout path)
//   corrupt-store-tail:bytes=N[,count=C]  chop the last N bytes off the
//                                         next C result-store segment
//                                         images read at open (a torn tail
//                                         the recovery scan must absorb)
//   crash-after-commit:after=N[,hard=1]   after the N-th durable result
//                                         commit, crash the sweep: throw
//                                         core::SweepCrash (default) or
//                                         _Exit(17) when hard=1 (true
//                                         process kill for CI resume tests)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dart::common {

/// What `FaultInjector::on_batch` tells the shard loop to do before
/// serving the batch it just assembled.
struct BatchFault {
  std::uint64_t delay_us = 0;  ///< sleep this long (slow-shard)
  bool stall = false;          ///< stop heartbeating until abandoned (stall-shard)
};

/// What `FaultInjector::on_cell` tells a sweep-cell attempt to do before
/// running its simulation.
struct CellFault {
  std::uint64_t delay_ms = 0;  ///< sleep this long first (slow-cell)
  bool fail = false;           ///< then fail the attempt (fail-cell)
};

/// What the result store must do right after a durable commit.
enum class CrashAction : std::uint8_t {
  kNone = 0,  ///< keep going
  kThrow,     ///< throw core::SweepCrash (in-process crash simulation)
  kExit,      ///< _Exit(kCrashExitCode) — a real kill, nothing unwinds
};

/// Exit code of a `crash-after-commit:hard=1` process kill, so CI resume
/// scripts can assert the sweep died by injection rather than by accident.
inline constexpr int kCrashExitCode = 17;

/// Monotonic tallies of faults actually fired, for test assertions and the
/// operator reports printed by `dart_run --serve` / `dart_sweep`.
struct FaultCounters {
  std::uint64_t slow_batches = 0;       ///< batches delayed by slow-shard
  std::uint64_t stalls = 0;             ///< stall-shard triggers
  std::uint64_t wakes_dropped = 0;      ///< park wakes suppressed
  std::uint64_t submits_rejected = 0;   ///< admissions failed by reject-submit
  std::uint64_t artifacts_mutated = 0;  ///< artifact byte images corrupted/truncated
  std::uint64_t cells_failed = 0;       ///< sweep-cell attempts failed by fail-cell
  std::uint64_t cells_delayed = 0;      ///< sweep-cell attempts delayed by slow-cell
  std::uint64_t stores_mutated = 0;     ///< store segment images torn at open
  std::uint64_t crashes = 0;            ///< crash-after-commit triggers
};

/// The process-global fault registry. `install` swaps in a new immutable
/// plan (thread-safe against hooks running concurrently); `clear` disarms.
/// Hooks are safe to call from any thread at any time.
class FaultInjector {
 public:
  /// Parses and arms `spec`; an empty string disarms. Resets the fired
  /// counters. Throws InputError (common/text.hpp) on a malformed clause
  /// (common::Spec), an unknown kind, an unknown or missing parameter, or
  /// an out-of-range value, leaving the previous plan armed.
  /// `slow-cell:ms` and `slow-shard:us` are bounded by kMaxTimerSeconds.
  void install(const std::string& spec);

  /// Disarms all faults (hooks return to their single-load fast path).
  void clear();

  /// True when a non-empty plan is armed.
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Shard-loop hook, called once per assembled batch before serving.
  BatchFault on_batch(std::size_t shard);

  /// Submit-side hook: true = suppress the park wake for this submit.
  bool drop_wake();

  /// Ingress admission hook: true = reject this submit (backpressure).
  bool reject_submit(std::size_t shard);

  /// Artifact-read hook: corrupts or truncates `bytes` in place per the
  /// armed corrupt-artifact / truncate-artifact clauses.
  void mutate_artifact(std::vector<std::uint8_t>& bytes);

  /// Sweep-cell hook, called once per cell attempt with the cell's
  /// "app|prefetcher" label before any simulation work.
  CellFault on_cell(const std::string& label);

  /// Result-store open hook: chops the tail off `bytes` per the armed
  /// corrupt-store-tail clauses (simulating a torn final write).
  void mutate_store(std::vector<std::uint8_t>& bytes);

  /// Result-store commit hook, called once per durable record append,
  /// after the record hit disk. Returns what the store should do next.
  CrashAction on_store_commit();

  /// Snapshot of the fired-fault tallies since the last install().
  FaultCounters counters() const;

 private:
  struct Plan;
  std::shared_ptr<const Plan> plan() const;

  mutable std::mutex mu_;
  std::shared_ptr<const Plan> plan_;
  std::atomic<bool> armed_{false};

  std::atomic<std::uint64_t> slow_batches_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> wakes_dropped_{0};
  std::atomic<std::uint64_t> submits_rejected_{0};
  std::atomic<std::uint64_t> artifacts_mutated_{0};
  std::atomic<std::uint64_t> cells_failed_{0};
  std::atomic<std::uint64_t> cells_delayed_{0};
  std::atomic<std::uint64_t> stores_mutated_{0};
  std::atomic<std::uint64_t> crashes_{0};
};

/// The process-wide injector instance every serving and sweep hook consults.
FaultInjector& fault_injector();

}  // namespace dart::common
