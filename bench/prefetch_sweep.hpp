// Shared driver for the Figs. 12/13/14 bench binaries: one full
// (app x prefetcher) ExperimentRunner sweep, persisted in a result store so
// the three binaries (run alphabetically by the bench loop) compute it only
// once.
#pragma once

#include <string>

#include "core/experiment.hpp"

namespace dart::bench {

/// The sweep's grid: the Table IV apps (all eight, or the DART_APPS subset)
/// followed by any DART_WORKLOADS rows, with the prefetcher set and knobs of
/// core::ExperimentSpec::bench_defaults.
core::ExperimentSpec prefetch_sweep_spec();

/// Runs that sweep through the result store at DART_SWEEP_DIR, or at
/// "prefetch_sweep_store" in the working directory when that is unset.
/// Cells already committed under the same knobs come back as kSkipped, with
/// no training or simulation.
core::ExperimentResult cached_prefetch_sweep();

/// Prints the per-app + mean table for one metric ("accuracy", "coverage",
/// or "ipc") and writes `csv_name`.
void print_metric_table(const core::ExperimentResult& result, const std::string& metric,
                        const std::string& title, const std::string& csv_name);

}  // namespace dart::bench
