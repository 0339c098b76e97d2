// Ablation — attention-kernel activation handling: sigmoid folded into the
// QKV table at training time (the paper's Eq. 14) vs exact row softmax
// applied to the looked-up scores at query time.
#include "bench_common.hpp"

using namespace dart;

int main() {
  auto apps = bench::bench_apps();
  if (core::ExperimentSpec::env_apps().empty()) {
    apps = {trace::App::kLibquantum, trace::App::kGcc, trace::App::kMilc, trace::App::kMcf};
  }
  core::PipelineOptions opts = core::PipelineOptions::bench_defaults();

  std::vector<std::array<double, 2>> f1(apps.size());
  bench::for_each_app_parallel(apps, [&](trace::App app, std::size_t i) {
    core::Pipeline pipe(app, opts);
    pipe.student();
    tabular::TabularizeOptions tab = opts.tab;
    tab.attention_activation = tabular::AttentionActivation::kSigmoidFolded;
    f1[i][0] = pipe.eval_tabular(pipe.tabularize(tab)).f1;
    tab.attention_activation = tabular::AttentionActivation::kSoftmaxAtQuery;
    f1[i][1] = pipe.eval_tabular(pipe.tabularize(tab)).f1;
  });

  common::TablePrinter t("Ablation: attention activation (Eq. 14 sigmoid vs query softmax)");
  t.set_header({"App", "F1 sigmoid-folded", "F1 softmax-at-query", "delta"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    t.add_row({trace::app_name(apps[i]), common::TablePrinter::fmt(f1[i][0], 3),
               common::TablePrinter::fmt(f1[i][1], 3),
               common::TablePrinter::fmt(f1[i][1] - f1[i][0], 3)});
  }
  bench::emit(t, "ablation_attention_table.csv");
  std::printf("Sigmoid folding removes all query-time activation arithmetic (Eq. 14);\n"
              "softmax-at-query trades O(T) scalar work per row for exact normalization.\n");
  return 0;
}
