// Table IX experiment grid over the synthetic workload corpus (DESIGN.md
// §12): the same ExperimentRunner sweep that produces Figs. 12-14 for the
// Table IV apps, re-pointed at the YCSB-grade workload families from
// trace/workloads.hpp. Closes the loop on the deterministic workload
// engine — the corpus feeds training, simulation and the accuracy /
// coverage / IPC metrics end to end.
//
// Output: one per-(workload, prefetcher) results table + CSV
// (table9_workloads.csv, ExperimentResult::write_csv schema). The repo
// versions a reference run at results/table9_workloads.csv; CI regenerates
// the CSV at smoke scale and uploads it as an artifact.
//
// Knobs: DART_WORKLOADS overrides the default corpus (';'-separated
// specs), DART_PREFETCHERS the prefetcher set (default keeps the sweep
// tractable: rule-based baselines + the tabular DART variants; the NN
// baselines train per workload and dominate wall-clock), and the usual
// DART_EPOCHS / DART_TRAIN_SAMPLES / DART_SIM_INSTR scale levers.
//
// The grid runs through the resumable sweep machinery (DESIGN.md §13):
// DART_SWEEP_DIR (or --store DIR) points at a durable result store, so an
// interrupted overnight grid resumes instead of restarting — CI and local
// runs produce table9_workloads.csv through the exact same path. The
// DART_SWEEP_TIMEOUT_MS / DART_SWEEP_RETRIES knobs apply unchanged.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "prefetch_sweep.hpp"

using namespace dart;

int main(int argc, char** argv) {
  std::string csv_path = "table9_workloads.csv";
  std::string store_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) csv_path = argv[++i];
    if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) store_dir = argv[++i];
  }

  core::ExperimentSpec spec = core::ExperimentSpec::bench_defaults();
  spec.sweep = core::SweepOptions::from_env();
  if (!store_dir.empty()) spec.sweep.store_dir = store_dir;
  // Synthetic corpus only: DART_WORKLOADS or the default corpus sets the
  // rows, so DART_APPS does not apply here.
  spec.workloads = core::ExperimentSpec::env_workloads();
  if (spec.workloads.empty()) {
    spec.workloads = {
        "trace:zipfian,footprint=64M,theta=0.99",
        "trace:scrambled-zipfian,footprint=64M,theta=0.99",
        "trace:latest,footprint=64M,theta=0.99",
        "trace:exponential,footprint=64M",
        "trace:uniform,footprint=64M",
        "trace:sequential,footprint=64M,stride=4",
        "trace:ycsb-a,footprint=64M",
        "trace:ycsb-b,footprint=64M",
    };
  }
  if (common::env_string("DART_PREFETCHERS", "").empty()) {
    spec.prefetchers = {"BO", "ISB", "DART-S", "DART"};
  }

  std::printf("running workload-corpus grid (%zu workloads x %zu prefetchers)...\n",
              spec.workloads.size(), spec.prefetchers.size());
  if (!spec.sweep.store_dir.empty()) {
    std::printf("result store: %s (crash-safe, resumable)\n", spec.sweep.store_dir.c_str());
  }
  common::Stopwatch watch;
  core::ExperimentResult result = core::ExperimentRunner(spec).run();
  std::printf("grid done in %.1f s (%zu simulated, %zu reused, %zu quarantined)\n",
              watch.elapsed_s(), result.count(core::CellStatus::kDone),
              result.count(core::CellStatus::kSkipped),
              result.count(core::CellStatus::kFailed));

  bench::print_metric_table(result, "accuracy", "Prefetch accuracy over the workload corpus",
                            "workload_grid_accuracy.csv");
  bench::print_metric_table(result, "coverage", "Prefetch coverage over the workload corpus",
                            "workload_grid_coverage.csv");
  bench::print_metric_table(result, "ipc", "IPC improvement over the workload corpus",
                            "workload_grid_ipc.csv");

  if (!result.write_csv(csv_path)) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  std::printf("[csv] %s\n", csv_path.c_str());
  return 0;
}
