// Shared helpers for the per-table / per-figure bench binaries.
//
// Every binary prints the paper's rows to stdout and mirrors them to a CSV
// (<bench-name>.csv in the working directory). Scaling knobs come from the
// environment (DESIGN.md §5): DART_TRAIN_SAMPLES, DART_EPOCHS,
// DART_SIM_INSTR, DART_APPS, DART_FULL_SWEEP, DART_PAPER_SCALE.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/table_printer.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "trace/generators.hpp"

namespace dart::bench {

/// Apps to evaluate: all eight by default, or the DART_APPS subset
/// (parsed once, by core::ExperimentSpec::env_apps).
inline std::vector<trace::App> bench_apps() {
  const std::vector<trace::App> apps = core::ExperimentSpec::env_apps();
  return apps.empty() ? trace::all_apps() : apps;
}

/// Short column label, e.g. "410.bwav".
inline std::string short_name(trace::App app) {
  std::string n = trace::app_name(app);
  return n.size() > 8 ? n.substr(0, 8) : n;
}

/// Runs `fn(app, index)` for every app on the shared thread pool (per-app
/// pipelines are independent; inner compute inlines inside pool workers).
template <typename Fn>
void for_each_app_parallel(const std::vector<trace::App>& apps, Fn&& fn) {
  common::parallel_for_each(
      apps.size(), [&](std::size_t i) { fn(apps[i], i); }, /*min_grain=*/1);
}

/// Prints and CSV-mirrors a finished table.
inline void emit(common::TablePrinter& table, const std::string& csv_name) {
  table.print();
  if (table.write_csv(csv_name)) {
    std::printf("[csv] %s\n", csv_name.c_str());
  }
}

}  // namespace dart::bench
