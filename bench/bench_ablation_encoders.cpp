// Ablation — exact argmin encoder vs the O(log K) hash-tree encoder
// (DESIGN.md substitution #4): end-to-end DART F1 under both, per app.
#include "bench_common.hpp"

using namespace dart;

int main() {
  auto apps = bench::bench_apps();
  // Ablations default to a representative subset to keep runtime modest.
  if (core::ExperimentSpec::env_apps().empty()) {
    apps = {trace::App::kLibquantum, trace::App::kGcc, trace::App::kMilc, trace::App::kMcf};
  }
  core::PipelineOptions opts = core::PipelineOptions::bench_defaults();

  std::vector<std::array<double, 2>> f1(apps.size());
  bench::for_each_app_parallel(apps, [&](trace::App app, std::size_t i) {
    core::Pipeline pipe(app, opts);
    pipe.student();
    tabular::TabularizeOptions tab = opts.tab;
    tab.encoder = pq::EncoderKind::kExact;
    f1[i][0] = pipe.eval_tabular(pipe.tabularize(tab)).f1;
    tab.encoder = pq::EncoderKind::kHashTree;
    f1[i][1] = pipe.eval_tabular(pipe.tabularize(tab)).f1;
  });

  common::TablePrinter t("Ablation: exact vs hash-tree (log K) encoding");
  t.set_header({"App", "F1 exact", "F1 hash-tree", "delta"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    t.add_row({trace::app_name(apps[i]), common::TablePrinter::fmt(f1[i][0], 3),
               common::TablePrinter::fmt(f1[i][1], 3),
               common::TablePrinter::fmt(f1[i][1] - f1[i][0], 3)});
  }
  bench::emit(t, "ablation_encoders.csv");
  std::printf("The hash tree costs log2(K) comparisons per subspace (the Eq. 16 latency\n"
              "model) and should track the exact encoder within a small F1 gap.\n");
  return 0;
}
