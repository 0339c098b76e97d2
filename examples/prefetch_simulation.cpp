// Scenario example: deploy DART as an LLC prefetcher in the timing
// simulator and compare it against Best-Offset and a no-prefetcher baseline
// on a pointer-heavy workload — the use case the paper's introduction
// motivates (rule-based prefetchers cannot learn irregular correlations).
//
// Built on the experiment API: every prefetcher is a registry spec string,
// so extra scenarios need no code — pass them on the command line:
//
//   ./build/examples/prefetch_simulation [app] [spec ...]
//   ./build/examples/prefetch_simulation 605.mcf "stride:table=512,degree=4" \
//       "dart:variant=l,threshold=0.6"
#include <cstdio>

#include "core/experiment.hpp"

using namespace dart;

int main(int argc, char** argv) try {
  const trace::App app = argc > 1 ? trace::app_from_name(argv[1]) : trace::App::kMcf;

  core::ExperimentSpec spec;
  spec.workloads = {trace::app_name(app)};
  spec.prefetchers = {"bo", "isb", "dart"};
  for (int i = 2; i < argc; ++i) spec.prefetchers.push_back(argv[i]);
  spec.pipeline.raw_accesses = 200000;
  spec.pipeline.prep.max_samples = 4000;

  std::printf("== %s ==\n", trace::app_name(app).c_str());
  std::printf("running %zu prefetchers (training happens lazily per spec)...\n",
              spec.prefetchers.size());
  const core::ExperimentResult result = core::ExperimentRunner(spec).run();

  std::printf("\n%-28s %8s %10s %10s %10s\n", "prefetcher (spec)", "IPC", "improve",
              "accuracy", "coverage");
  if (!result.cells.empty()) {
    std::printf("%-28s %8.3f %9.1f%% %9s %9s\n", "(none)", result.cells[0].baseline_ipc, 0.0,
                "-", "-");
  }
  for (const auto& c : result.cells) {
    const std::string label =
        c.prefetcher == c.spec ? c.prefetcher : c.prefetcher + " (" + c.spec + ")";
    std::printf("%-28s %8.3f %9.1f%% %9.1f%% %9.1f%%\n", label.c_str(), c.stats.ipc(),
                100.0 * c.ipc_improvement, 100.0 * c.stats.accuracy(),
                100.0 * c.stats.coverage());
  }
  const core::ExperimentCell* dart = result.find("DART", trace::app_name(app));
  if (dart != nullptr) {
    std::printf("\nDART predictor: %.1f KB of tables, %zu-cycle prediction latency\n",
                dart->storage_bytes / 1024.0, dart->latency_cycles);
  }
  result.write_json("prefetch_simulation.json");
  std::printf("[json] prefetch_simulation.json\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
