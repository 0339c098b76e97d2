// First-class experiment API for the prefetching evaluation (Figs. 12-14,
// Table IX): an ExperimentSpec names a grid of workloads x prefetcher specs,
// and ExperimentRunner schedules the individual (app, prefetcher) cells on the
// shared common::thread_pool — finer-grained than one thread per app, so a
// wide prefetcher list keeps every core busy even with few apps.
//
// Prefetchers are constructed through the sim::PrefetcherRegistry from spec
// strings ("bo", "stride:table=256,degree=4", "dart:variant=l"), with each
// app's trained pipeline artifacts lent to the factories via a
// sim::PrefetcherContext. Adding a scenario is a registry entry plus a spec
// string — this file never changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"

namespace dart::core {

/// How a sweep cell resolved. Every cell of a finished grid carries exactly
/// one status, and `completed + failed + skipped == grid size` always holds
/// (the sweep analogue of the serving layer's exactly-one-resolution
/// invariant, DESIGN.md §13).
enum class CellStatus : std::uint8_t {
  kDone = 0,     ///< simulated in this run (or stored as such)
  kFailed = 1,   ///< quarantined: every allowed attempt failed
  kSkipped = 2,  ///< reused from the result store without re-simulation
};

/// Stable lowercase name for reports and logs ("done"/"failed"/"skipped").
const char* cell_status_name(CellStatus status);

/// Most retries a sweep cell may be given: doubling from the 10 ms default
/// backoff already sleeps ~5.5 min before retry 16.
inline constexpr std::uint64_t kMaxCellRetries = 16;

/// Crash-safety knobs for a sweep (DESIGN.md §13). All default to the
/// legacy in-memory behavior: no store, no timeout, two retries. Every cell
/// replays once, through sim::Simulator::run.
struct SweepOptions {
  /// Result-store directory; empty disables persistence and resume.
  std::string store_dir;
  /// Wall-clock budget per cell attempt in milliseconds; 0 = unlimited, at
  /// most common::kMaxTimerSeconds. A timed-out attempt is abandoned (its
  /// thread is reaped before run() returns) and counts as a failure toward
  /// the retry budget.
  std::uint64_t cell_timeout_ms = 0;
  /// Retries after the first failed attempt (total attempts = retries + 1),
  /// at most kMaxCellRetries.
  std::uint64_t cell_retries = 2;
  /// Backoff before retry r is `backoff_ms << (r-1)` (doubling), each sleep
  /// capped at common::kMaxTimerSeconds; 0 disables. The base is at most
  /// common::kMaxTimerSeconds.
  std::uint64_t backoff_ms = 10;

  /// Env-driven defaults: DART_SWEEP_DIR, DART_SWEEP_TIMEOUT_MS,
  /// DART_SWEEP_RETRIES, DART_SWEEP_BACKOFF_MS. Throws
  /// std::invalid_argument naming the variable when a value is negative.
  static SweepOptions from_env();
};

/// The experiment grid: workloads x prefetcher specs, plus shared
/// sim/pipeline configuration.
struct ExperimentSpec {
  /// The grid's rows, as workload spec strings (trace/workloads.hpp
  /// grammar): Table IV app names ("462.libquantum"),
  /// "trace:zipfian,theta=0.99,footprint=64M", "tracefile:path=...". Empty
  /// means all eight Table IV apps.
  std::vector<std::string> workloads;
  /// Prefetcher spec strings (sim/registry.hpp grammar). Defaults to the
  /// paper's evaluated set; legacy display names are registry aliases.
  std::vector<std::string> prefetchers = {"BO",        "ISB",          "TransFetch",
                                          "Voyager",   "TransFetch-I", "Voyager-I",
                                          "DART-S",    "DART",         "DART-L"};
  /// Shared data/training/simulation knobs. When `pipeline.artifact_dir`
  /// is set (DART_ARTIFACT_DIR), the runner persists trained artifacts
  /// there — `.dart` files for the tabular models, checkpoints for the NN
  /// baselines — keyed by a configuration hash, and later sweeps under the
  /// same knobs cold-start from disk with zero training/tabularization.
  PipelineOptions pipeline = PipelineOptions::bench_defaults();
  /// Simulation-cost sampling for the heavyweight NN baselines: run their
  /// (expensive CPU-side) inference on every Nth LLC access. Applied to the
  /// ideal variants too, so comparisons stay fair.
  std::size_t nn_trigger_sample = 4;
  /// Schedule cells on the shared thread pool (false = run in spec order).
  bool parallel = true;
  /// Crash-safety / resume knobs; defaults keep the legacy in-memory
  /// single-shot behavior.
  SweepOptions sweep;

  /// Env-driven defaults: `workloads` holds the DART_APPS names first, then
  /// the DART_WORKLOADS specs (';'-separated), and DART_PREFETCHERS accepts
  /// arbitrary prefetcher spec strings (';'-separated; plain ','-separated
  /// name lists also work).
  static ExperimentSpec bench_defaults();
  /// The DART_APPS subset, in order; empty when unset.
  static std::vector<trace::App> env_apps();
  /// The DART_WORKLOADS specs, validated and canonical; empty when unset.
  static std::vector<std::string> env_workloads();
};

/// One (app, prefetcher) result cell.
struct ExperimentCell {
  std::string spec;        ///< spec string as requested
  std::string prefetcher;  ///< display name (Prefetcher::name())
  std::string app;         ///< workload display name, e.g. "605.mcf", "ycsb-b"
  sim::SimStats stats;     ///< raw simulator counters for this cell
  double baseline_ipc = 0.0;     ///< no-prefetcher IPC of the same trace
  double ipc_improvement = 0.0;  ///< (ipc - baseline) / baseline
  std::size_t storage_bytes = 0;   ///< prefetcher metadata/model footprint
  std::size_t latency_cycles = 0;  ///< prediction latency (Table IX)
  /// How this cell resolved (kSkipped = reused from the result store).
  CellStatus status = CellStatus::kDone;
  /// Attempts consumed (1 = first try succeeded; 0 = reused from store
  /// before this run made any attempt).
  std::uint32_t attempts = 0;
  /// Last attempt's error text for kFailed cells; empty otherwise.
  std::string error;
};

/// Mean accuracy / coverage / IPC improvement per prefetcher, in first-seen
/// cell order.
struct PrefetcherSummary {
  std::string prefetcher;            ///< display name being aggregated
  double mean_accuracy = 0.0;        ///< mean Fig. 12 accuracy across apps
  double mean_coverage = 0.0;        ///< mean Fig. 13 coverage across apps
  double mean_ipc_improvement = 0.0; ///< mean Fig. 14 IPC gain across apps
  std::size_t storage_bytes = 0;     ///< max storage across apps
  std::size_t latency_cycles = 0;    ///< prediction latency (config-fixed)
};

/// Structured result of a grid run: app-major cells in request order, plus
/// aggregation and shared CSV/JSON export.
struct ExperimentResult {
  std::vector<ExperimentCell> cells;  ///< app-major, in request order

  /// Distinct app names in first-seen cell order.
  std::vector<std::string> apps() const;
  /// Distinct prefetcher display names in first-seen cell order.
  std::vector<std::string> prefetchers() const;
  /// First cell matching (prefetcher display name, app); nullptr if absent.
  const ExperimentCell* find(const std::string& prefetcher, const std::string& app) const;
  /// Per-prefetcher means across apps (the Table IX aggregation).
  std::vector<PrefetcherSummary> summaries() const;
  /// Number of cells with the given resolution status. For any finished
  /// grid, the three counts sum to `cells.size()`.
  std::size_t count(CellStatus status) const;

  /// Writes the cells as CSV (one row per cell). An export only: sweeps
  /// persist and resume through the result store (SweepOptions::store_dir).
  bool write_csv(const std::string& path) const;
  /// Writes the cells as a JSON array (one object per cell).
  bool write_json(const std::string& path) const;
};

/// Evaluates an ExperimentSpec grid: per-app preparation + baseline
/// simulation first, then every (app, prefetcher) cell as an independent
/// task on the shared thread pool. Heavy artifacts (teacher, LSTM, DART
/// tables) are trained lazily, once per app, on first use by any cell — or
/// reloaded from `pipeline.artifact_dir` when a fresh artifact exists.
///
/// With `spec.sweep.store_dir` set the run is RESTARTABLE (DESIGN.md §13):
/// the runner opens the durable result store, replays it, marks every cell
/// whose key (workload x prefetcher x configuration hash) already has a
/// completed record as kSkipped without re-simulating, schedules only the
/// remainder, and commits each resolving cell to the store (fsync'd)
/// before moving on. Cell failures are retried with doubling backoff under
/// an optional wall-clock timeout; exhausted cells are quarantined as
/// kFailed records rather than aborting the sweep, so one pathological
/// cell can never take down an overnight grid.
class ExperimentRunner {
 public:
  /// Captures the grid; nothing runs until `run()`.
  explicit ExperimentRunner(ExperimentSpec spec);

  /// Runs the grid. Spec strings are validated up front (unknown prefetcher
  /// names throw before any training starts), and so are the `spec.sweep`
  /// bounds: a timeout or backoff base above common::kMaxTimerSeconds, or
  /// more than kMaxCellRetries retries, throws std::invalid_argument naming
  /// the field before the store is opened. A cell failure is retried per
  /// `spec.sweep` and then quarantined as CellStatus::kFailed — run() still
  /// returns the full grid, with `completed + failed + skipped` equal to
  /// its size. Only infrastructure errors escape: store I/O failure, and
  /// SweepCrash from an injected crash-after-commit fault (in parallel mode
  /// rethrown after all in-flight cells finish; in sequential mode
  /// immediately).
  ExperimentResult run();

 private:
  ExperimentSpec spec_;
};

}  // namespace dart::core
