#include "prefetch_sweep.hpp"

#include "bench_common.hpp"

namespace dart::bench {

namespace {

constexpr const char* kStoreDir = "prefetch_sweep_store";

}  // namespace

core::ExperimentSpec prefetch_sweep_spec() {
  core::ExperimentSpec spec = core::ExperimentSpec::bench_defaults();
  spec.workloads.clear();
  for (trace::App app : bench_apps()) spec.workloads.push_back(trace::app_name(app));
  for (std::string& w : core::ExperimentSpec::env_workloads()) {
    spec.workloads.push_back(std::move(w));
  }
  spec.sweep = core::SweepOptions::from_env();
  if (spec.sweep.store_dir.empty()) spec.sweep.store_dir = kStoreDir;
  return spec;
}

core::ExperimentResult cached_prefetch_sweep() {
  const core::ExperimentSpec spec = prefetch_sweep_spec();
  common::Stopwatch watch;
  std::printf("running prefetcher sweep (result store: %s)...\n", spec.sweep.store_dir.c_str());
  core::ExperimentResult result = core::ExperimentRunner(spec).run();
  std::printf("sweep of %zu workloads x %zu prefetchers done in %.1f s (%zu simulated, %zu reused, "
              "%zu quarantined)\n",
              result.apps().size(), spec.prefetchers.size(), watch.elapsed_s(),
              result.count(core::CellStatus::kDone), result.count(core::CellStatus::kSkipped),
              result.count(core::CellStatus::kFailed));
  return result;
}

void print_metric_table(const core::ExperimentResult& result, const std::string& metric,
                        const std::string& title, const std::string& csv_name) {
  const std::vector<std::string> apps = result.apps();
  const std::vector<std::string> pfs = result.prefetchers();
  auto value_of = [&](const core::ExperimentCell& c) {
    if (metric == "accuracy") return c.stats.accuracy();
    if (metric == "coverage") return c.stats.coverage();
    return c.ipc_improvement;
  };

  common::TablePrinter t(title);
  std::vector<std::string> header = {"Prefetcher"};
  for (const auto& a : apps) header.push_back(a.size() > 8 ? a.substr(0, 8) : a);
  header.push_back("Mean");
  t.set_header(header);
  for (const auto& pf : pfs) {
    std::vector<std::string> row = {pf};
    double mean = 0.0;
    for (const auto& app : apps) {
      const core::ExperimentCell* cell = result.find(pf, app);
      const double v = cell != nullptr ? value_of(*cell) : 0.0;
      row.push_back(common::TablePrinter::fmt_pct(v));
      mean += v;
    }
    row.push_back(common::TablePrinter::fmt_pct(mean / static_cast<double>(apps.size())));
    t.add_row(row);
  }
  emit(t, csv_name);
}

}  // namespace dart::bench
