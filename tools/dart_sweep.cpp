// dart_sweep — crash-safe, resumable experiment sweeps (DESIGN.md §13).
//
//   dart_sweep [--store DIR] [--workloads LIST] [--prefetchers LIST]
//              [--csv PATH] [--json PATH] [--timeout-ms N] [--retries N]
//              [--backoff-ms N] [--shards N] [--warmup N] [--sequential]
//              [--compact]
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
//   --timeout-ms N     per-attempt wall-clock budget (DART_SWEEP_TIMEOUT_MS)
//   --retries N        retries after first failure   (DART_SWEEP_RETRIES)
//   --backoff-ms N     doubling retry backoff base   (DART_SWEEP_BACKOFF_MS)
//   --shards N         trace shards per cell replay  (DART_SWEEP_SHARDS)
//   --warmup N         shard warmup accesses; -1=full(DART_SWEEP_WARMUP)
//   --sequential       run cells in grid order (deterministic commit order,
//                      the mode the resume CI job uses)
//   --compact          rewrite the store log to one record per cell at exit
//
// DART_FAULT=<spec> arms the deterministic fault injector (common/fault.hpp)
// before the sweep, e.g. DART_FAULT="crash-after-commit:after=2,hard=1".
//
// Exit codes: 0 = every cell completed (or was reused), 3 = the sweep
// finished but quarantined at least one cell (results partial, loudly), 17
// (common::kCrashExitCode) = an injected hard crash fired, 1 = crash/error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/env.hpp"
#include "common/fault.hpp"
#include "core/experiment.hpp"
#include "core/result_store.hpp"
#include "sim/registry.hpp"
#include "sim/shard_replay.hpp"
#include "trace/workloads.hpp"

using namespace dart;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--store DIR] [--workloads LIST] [--prefetchers LIST] "
               "[--csv PATH] [--json PATH] [--timeout-ms N] [--retries N] [--backoff-ms N] "
               "[--shards N] [--warmup N] [--sequential] [--compact]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentSpec spec = core::ExperimentSpec::bench_defaults();
  spec.sweep = core::SweepOptions::from_env();
  std::string csv_path;
  std::string json_path;
  bool compact = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--store") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      spec.sweep.store_dir = v;
    } else if (arg == "--workloads") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      spec.workloads.clear();
      for (const trace::Workload& w : trace::parse_workload_list(v)) {
        spec.workloads.push_back(w.spec());
      }
    } else if (arg == "--prefetchers") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      spec.prefetchers = sim::split_spec_list(v);
    } else if (arg == "--csv") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      csv_path = v;
    } else if (arg == "--json") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      json_path = v;
    } else if (arg == "--timeout-ms") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      spec.sweep.cell_timeout_ms = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--retries") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      spec.sweep.cell_retries = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--backoff-ms") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      spec.sweep.backoff_ms = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--shards") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      spec.sweep.trace_shards = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
      if (spec.sweep.trace_shards == 0) spec.sweep.trace_shards = 1;
    } else if (arg == "--warmup") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      const long long w = std::strtoll(v, nullptr, 10);
      spec.sweep.shard_warmup = w < 0 ? sim::kFullWarmup : static_cast<std::size_t>(w);
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
    try {
      common::fault_injector().install(fault_spec);
      std::fprintf(stderr, "[fault] armed: %s\n", fault_spec.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[fault] invalid DART_FAULT: %s\n", e.what());
      return 2;
    }
  }

  try {
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
    // The injected soft crash: committed cells are durable, the rest will
    // be re-run on resume. Mirror what a real crash would leave behind.
    std::fprintf(stderr, "sweep crashed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
