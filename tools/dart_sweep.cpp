// dart_sweep — crash-safe, resumable experiment sweeps (DESIGN.md §13).
//
//   dart_sweep [--store DIR] [--workloads LIST] [--prefetchers LIST]
//              [--csv PATH] [--json PATH] [--timeout-ms N] [--retries N]
//              [--backoff-ms N] [--sequential] [--compact]
//
// Runs the ExperimentRunner grid through the durable result store: every
// resolving cell is committed (fsync'd) before the sweep moves on, so a
// crash — OOM, kill -9, power loss — loses at most the cells in flight.
// Re-running the same command resumes: committed cells are loaded from the
// store and skipped, only the remainder is simulated, and the merged
// CSV/JSON output is byte-identical to an uninterrupted run.
//
// Flags override the matching environment knobs:
//   --store DIR        result-store directory        (DART_SWEEP_DIR)
//   --workloads LIST   ';'-separated workload specs  (DART_WORKLOADS); replaces
//                      the whole row list, DART_APPS rows included
//   --prefetchers LIST ';'-separated prefetcher specs(DART_PREFETCHERS)
//   --timeout-ms N     per-attempt wall-clock budget (DART_SWEEP_TIMEOUT_MS),
//                      0 = unlimited, at most 3600000 (one hour)
//   --retries N        retries after first failure   (DART_SWEEP_RETRIES),
//                      at most 16
//   --backoff-ms N     doubling retry backoff base   (DART_SWEEP_BACKOFF_MS),
//                      at most 3600000; each sleep is capped at one hour
//   --sequential       run cells in grid order (deterministic commit order,
//                      the mode the resume CI job uses)
//   --compact          rewrite the store log to one record per cell at exit
//
// N is a whole unsigned decimal token (common::parse_uint): "abc", "5x" or
// "-1" is refused by flag name, exit 2. A value past its bound is refused by
// name before the store is opened. Every cell replays once, through
// sim::Simulator::run; the sweep fans out across cells on the shared thread
// pool.
//
// DART_FAULT=<spec> arms the deterministic fault injector (common/fault.hpp)
// before the sweep, e.g. DART_FAULT="crash-after-commit:after=2,hard=1".
//
// Exit codes: 0 = every cell completed (or was reused), 3 = the sweep
// finished but quarantined at least one cell (results partial, loudly), 17
// (common::kCrashExitCode) = an injected hard crash fired, 2 = bad flag,
// environment knob or DART_FAULT spec, 1 = crash/error.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "common/fault.hpp"
#include "common/text.hpp"
#include "core/experiment.hpp"
#include "core/result_store.hpp"
#include "sim/registry.hpp"
#include "trace/workloads.hpp"

using namespace dart;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--store DIR] [--workloads LIST] [--prefetchers LIST] "
               "[--csv PATH] [--json PATH] [--timeout-ms N] [--retries N] [--backoff-ms N] "
               "[--sequential] [--compact]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  common::warn_unknown_knobs();
  core::ExperimentSpec spec = core::ExperimentSpec::bench_defaults();
  spec.sweep = core::SweepOptions::from_env();
  std::string csv_path;
  std::string json_path;
  bool compact = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&] { return common::flag_value(argc, argv, i); };
    if (arg == "--store") {
      spec.sweep.store_dir = value();
    } else if (arg == "--workloads") {
      spec.workloads.clear();
      for (const trace::Workload& w : trace::parse_workload_list(value())) {
        spec.workloads.push_back(w.spec());
      }
    } else if (arg == "--prefetchers") {
      spec.prefetchers = common::split_spec_list(value());
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--timeout-ms") {
      spec.sweep.cell_timeout_ms = common::parse_uint(arg, value());
    } else if (arg == "--retries") {
      spec.sweep.cell_retries = common::parse_uint(arg, value());
    } else if (arg == "--backoff-ms") {
      spec.sweep.backoff_ms = common::parse_uint(arg, value());
    } else if (arg == "--sequential") {
      spec.parallel = false;
    } else if (arg == "--compact") {
      compact = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  // Arm the deterministic fault injector before any sweep work, mirroring
  // the serve path: chaos tests exercise the exact binary that ships.
  const std::string fault_spec = common::env_string("DART_FAULT", "");
  if (!fault_spec.empty()) {
    common::fault_injector().install(fault_spec);
    std::fprintf(stderr, "[fault] armed: %s\n", fault_spec.c_str());
  }

  core::ExperimentRunner runner(spec);
  core::ExperimentResult result = runner.run();

  const std::size_t done = result.count(core::CellStatus::kDone);
  const std::size_t failed = result.count(core::CellStatus::kFailed);
  const std::size_t skipped = result.count(core::CellStatus::kSkipped);
  std::printf("sweep      : %zu cell(s) — %zu simulated, %zu reused from store, "
              "%zu quarantined\n",
              result.cells.size(), done, skipped, failed);
  for (const auto& c : result.cells) {
    if (c.status == core::CellStatus::kFailed) {
      std::printf("quarantined: %s | %s after %u attempt(s): %s\n", c.app.c_str(),
                  c.spec.c_str(), c.attempts, c.error.c_str());
    }
  }
  if (done + failed + skipped != result.cells.size()) {
    std::fprintf(stderr, "accounting violation: %zu + %zu + %zu != %zu\n", done, failed,
                 skipped, result.cells.size());
    return 1;
  }

  if (!csv_path.empty() && !result.write_csv(csv_path)) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  if (!json_path.empty() && !result.write_json(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (compact && !spec.sweep.store_dir.empty()) {
    core::ResultStore store(spec.sweep.store_dir);
    store.compact();
    std::printf("store      : compacted to %zu record(s)\n", store.size());
  }
  return failed > 0 ? 3 : 0;
} catch (const core::SweepCrash& e) {
  // The injected soft crash: committed cells are durable, the rest will be
  // re-run on resume. Mirror what a real crash would leave behind.
  std::fprintf(stderr, "sweep crashed: %s\n", e.what());
  return 1;
} catch (const std::exception& e) {
  return common::report_error(e);
}
