// Fig. 8 — DART F1-score as the number of prototypes K varies (C fixed at
// the DART default). Paper shape: F1 improves with K, with the big jump
// past K=128 and ~10.9% between K=16 and K=1024.
#include "bench_common.hpp"

using namespace dart;

int main() {
  const auto apps = bench::bench_apps();
  core::PipelineOptions opts = core::PipelineOptions::bench_defaults();
  std::vector<std::size_t> ks = {16, 64, 256, 1024};
  if (common::env_uint("DART_FULL_SWEEP", 0) != 0) ks = {16, 32, 64, 128, 256, 512, 1024};

  std::vector<std::vector<double>> f1(apps.size(), std::vector<double>(ks.size(), 0.0));
  bench::for_each_app_parallel(apps, [&](trace::App app, std::size_t i) {
    core::Pipeline pipe(app, opts);
    pipe.student();  // train once; tabularize per K
    for (std::size_t j = 0; j < ks.size(); ++j) {
      tabular::TabularizeOptions tab = opts.tab;
      tab.tables = tabular::TableConfig::uniform(ks[j], opts.tab.tables.attention.c);
      f1[i][j] = pipe.eval_tabular(pipe.tabularize(tab)).f1;
    }
  });

  common::TablePrinter t("Fig. 8: DART F1 vs number of prototypes K (C=2)");
  std::vector<std::string> header = {"App"};
  for (auto k : ks) header.push_back("K=" + std::to_string(k));
  t.set_header(header);
  std::vector<double> mean(ks.size(), 0.0);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    std::vector<std::string> row = {trace::app_name(apps[i])};
    for (std::size_t j = 0; j < ks.size(); ++j) {
      row.push_back(common::TablePrinter::fmt(f1[i][j], 3));
      mean[j] += f1[i][j];
    }
    t.add_row(row);
  }
  std::vector<std::string> mrow = {"Mean"};
  for (std::size_t j = 0; j < ks.size(); ++j) {
    mrow.push_back(common::TablePrinter::fmt(mean[j] / static_cast<double>(apps.size()), 3));
  }
  t.add_row(mrow);
  bench::emit(t, "fig8_prototype_sweep.csv");
  std::printf("Paper shape: mean F1 rises with K (K=1024 ~10.9%% above K=16).\n");
  return 0;
}
