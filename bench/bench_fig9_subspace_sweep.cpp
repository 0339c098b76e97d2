// Fig. 9 — DART F1-score as the number of subspaces C varies (K fixed).
// Paper shape: higher C helps, but less than K (C=8 ~6.6% above C=1).
#include "bench_common.hpp"

using namespace dart;

int main() {
  const auto apps = bench::bench_apps();
  core::PipelineOptions opts = core::PipelineOptions::bench_defaults();
  // C must divide the per-head dimension (16 for the student), T (8), and
  // the segment counts (8): {1, 2, 4, 8} are the valid sweep points.
  std::vector<std::size_t> cs = {1, 2, 4};
  if (common::env_uint("DART_FULL_SWEEP", 0) != 0) cs = {1, 2, 4, 8};

  std::vector<std::vector<double>> f1(apps.size(), std::vector<double>(cs.size(), 0.0));
  bench::for_each_app_parallel(apps, [&](trace::App app, std::size_t i) {
    core::Pipeline pipe(app, opts);
    pipe.student();
    for (std::size_t j = 0; j < cs.size(); ++j) {
      tabular::TabularizeOptions tab = opts.tab;
      tab.tables = tabular::TableConfig::uniform(opts.tab.tables.attention.k, cs[j]);
      if (!tabular::config_is_valid(opts.student_arch, tab.tables)) continue;
      f1[i][j] = pipe.eval_tabular(pipe.tabularize(tab)).f1;
    }
  });

  common::TablePrinter t("Fig. 9: DART F1 vs number of subspaces C (K=128)");
  std::vector<std::string> header = {"App"};
  for (auto c : cs) header.push_back("C=" + std::to_string(c));
  t.set_header(header);
  std::vector<double> mean(cs.size(), 0.0);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    std::vector<std::string> row = {trace::app_name(apps[i])};
    for (std::size_t j = 0; j < cs.size(); ++j) {
      row.push_back(common::TablePrinter::fmt(f1[i][j], 3));
      mean[j] += f1[i][j];
    }
    t.add_row(row);
  }
  std::vector<std::string> mrow = {"Mean"};
  for (std::size_t j = 0; j < cs.size(); ++j) {
    mrow.push_back(common::TablePrinter::fmt(mean[j] / static_cast<double>(apps.size()), 3));
  }
  t.add_row(mrow);
  bench::emit(t, "fig9_subspace_sweep.csv");
  std::printf("Paper shape: F1 improves mildly with C (C=8 ~6.6%% above C=1).\n");
  return 0;
}
