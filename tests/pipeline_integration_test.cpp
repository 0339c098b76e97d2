// Integration tests across the whole stack: trace -> dataset -> teacher ->
// KD student -> tabularization -> simulator, on shrunken configurations.
#include <gtest/gtest.h>

#include "core/configs.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"

namespace dart::core {
namespace {

PipelineOptions tiny_options() {
  PipelineOptions o = PipelineOptions::bench_defaults();
  o.raw_accesses = 60000;
  o.prep.max_samples = 1200;
  o.teacher_arch.layers = 1;
  o.teacher_arch.dim = 32;
  o.teacher_arch.heads = 2;
  o.teacher_arch.ffn_dim = 64;
  o.teacher_train.epochs = 4;
  o.student_train.epochs = 4;
  o.tab.tables = tabular::TableConfig::uniform(64, 2);
  o.tab.max_train_samples = 600;
  return o;
}

TEST(PipelineIntegration, PrepareBuildsAlignedSplits) {
  Pipeline pipe(trace::App::kLibquantum, tiny_options());
  pipe.prepare();
  EXPECT_GT(pipe.train_set().size(), 100u);
  EXPECT_GT(pipe.test_set().size(), 30u);
  EXPECT_EQ(pipe.train_set().addr.dim(1), tiny_options().prep.history);
  EXPECT_EQ(pipe.train_set().labels.dim(1), tiny_options().prep.bitmap_size);
}

TEST(PipelineIntegration, SequentialAppIsLearnableEndToEnd) {
  // libquantum is near-pure sequential: every model should score high,
  // and the tabular model must stay within a modest F1 drop (Table VII's
  // mechanism).
  Pipeline pipe(trace::App::kLibquantum, tiny_options());
  const double teacher = pipe.eval_nn(pipe.teacher()).f1;
  const double student = pipe.eval_nn(pipe.student()).f1;
  const double dart = pipe.eval_tabular(pipe.dart()).f1;
  EXPECT_GT(teacher, 0.85);
  EXPECT_GT(student, 0.85);
  EXPECT_GT(dart, teacher - 0.25);
}

TEST(PipelineIntegration, HardAppScoresLowerThanEasyApp) {
  // The Fig. 7 / Table VI observation: delta-rich mcf is harder than
  // delta-poor libquantum.
  PipelineOptions o = tiny_options();
  Pipeline easy(trace::App::kLibquantum, o);
  Pipeline hard(trace::App::kMcf, o);
  const double f1_easy = easy.eval_nn(easy.teacher()).f1;
  const double f1_hard = hard.eval_nn(hard.teacher()).f1;
  EXPECT_LT(f1_hard, f1_easy);
}

TEST(PipelineIntegration, DeterministicAcrossRuns) {
  PipelineOptions o = tiny_options();
  Pipeline a(trace::App::kGcc, o), b(trace::App::kGcc, o);
  const double fa = a.eval_nn(a.teacher()).f1;
  const double fb = b.eval_nn(b.teacher()).f1;
  EXPECT_DOUBLE_EQ(fa, fb);
}

TEST(PipelineIntegration, TabularizeHonorsVariantTables) {
  Pipeline pipe(trace::App::kGcc, tiny_options());
  tabular::TabularizeOptions tab;
  tab.tables = tabular::TableConfig::uniform(16, 1);
  tab.max_train_samples = 400;
  tabular::TabularPredictor small = pipe.tabularize(tab);
  tab.tables = tabular::TableConfig::uniform(128, 2);
  tabular::TabularPredictor large = pipe.tabularize(tab);
  EXPECT_LT(small.storage_bytes(), large.storage_bytes());
}

TEST(Experiment, RunsRuleBasedSweep) {
  ExperimentSpec spec;
  spec.pipeline = tiny_options();
  spec.workloads = {"462.libquantum"};
  spec.prefetchers = {"NextLine", "BO", "ISB", "Stride"};
  spec.parallel = false;
  const ExperimentResult result = ExperimentRunner(spec).run();
  ASSERT_EQ(result.cells.size(), 4u);
  for (const auto& c : result.cells) {
    EXPECT_GT(c.baseline_ipc, 0.0);
    EXPECT_GE(c.stats.pf_issued, 0u);
  }
  // On a sequential workload BO must deliver a clear IPC win.
  EXPECT_GT(result.cells[1].ipc_improvement, 0.02);
  const auto summary = result.summaries();
  ASSERT_EQ(summary.size(), 4u);
  EXPECT_EQ(summary[0].prefetcher, "NextLine");
}

TEST(Experiment, DartBeatsHighLatencyNnOnRegularApp) {
  ExperimentSpec spec;
  spec.pipeline = tiny_options();
  spec.workloads = {"462.libquantum"};
  spec.prefetchers = {"DART", "TransFetch"};
  spec.parallel = false;
  const ExperimentResult result = ExperimentRunner(spec).run();
  ASSERT_EQ(result.cells.size(), 2u);
  // The paper's headline: low-latency tables beat the high-latency NN.
  EXPECT_GE(result.cells[0].ipc_improvement, result.cells[1].ipc_improvement - 0.01);
  EXPECT_LT(result.cells[0].latency_cycles, result.cells[1].latency_cycles);
}

TEST(Configs, CanonicalArchitecturesAreConsistent) {
  const auto prep = default_preprocess();
  const auto teacher = paper_teacher_config();
  const auto student = paper_student_config();
  EXPECT_EQ(teacher.seq_len, prep.history);
  EXPECT_EQ(teacher.out_dim, prep.bitmap_size);
  EXPECT_EQ(student.dim, 32u);
  EXPECT_EQ(student.layers, 1u);
  EXPECT_EQ(teacher.layers, 4u);
  EXPECT_EQ(teacher.dim, 256u);
  // Variants match the paper's Table VIII tuples.
  EXPECT_EQ(dart_s_variant().tables.attention.k, 16u);
  EXPECT_EQ(dart_s_variant().tables.attention.c, 1u);
  EXPECT_EQ(dart_l_variant().arch.layers, 2u);
  EXPECT_EQ(dart_l_variant().tables.attention.k, 256u);
}

}  // namespace
}  // namespace dart::core
