// Tests for the prefetcher registry / spec-string API and the
// ExperimentRunner grid harness (DESIGN.md §4).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "bench_common.hpp"
#include "common/text.hpp"
#include "core/configs.hpp"
#include "core/experiment.hpp"
#include "prefetch/nn_prefetchers.hpp"
#include "prefetch_sweep.hpp"
#include "sim/registry.hpp"
#include "synthetic_model.hpp"
#include "trace/workloads.hpp"

namespace dart {
namespace {

// ----------------------------------------------------------- spec parsing

sim::PrefetcherSpec parse_spec(const std::string& text) {
  return common::Spec::parse(text, ':', "prefetcher spec");
}

TEST(PrefetcherSpec, ParsesNameAndParams) {
  auto spec = parse_spec("stride:table=256,degree=4");
  EXPECT_EQ(spec.name(), "stride");
  EXPECT_EQ(spec.get_uint("table", 0), 256u);
  EXPECT_EQ(spec.get_uint("degree", 0), 4u);
  EXPECT_TRUE(spec.unused_keys().empty());
}

TEST(PrefetcherSpec, DefaultsFlagsAndCase) {
  auto spec = parse_spec("TransFetch: Ideal , Threshold=0.6");
  EXPECT_EQ(spec.name(), "transfetch");  // names are case-insensitive
  EXPECT_TRUE(spec.get_flag("ideal"));   // bare token = boolean flag
  EXPECT_DOUBLE_EQ(spec.get_double("threshold", 0.5), 0.6);
  EXPECT_EQ(spec.get_uint("latency", 4500), 4500u);  // absent -> fallback
  EXPECT_FALSE(spec.get_flag("missing", false));
}

TEST(PrefetcherSpec, CanonicalRoundTrips) {
  auto spec = parse_spec("dart:variant=l,threshold=0.6,degree=32");
  const std::string canonical = spec.canonical();
  auto reparsed = parse_spec(canonical);
  EXPECT_EQ(reparsed.name(), spec.name());
  EXPECT_EQ(reparsed.canonical(), canonical);
  EXPECT_EQ(reparsed.get_string("variant", ""), "l");
  EXPECT_EQ(reparsed.get_uint("degree", 0), 32u);
}

TEST(PrefetcherSpec, RejectsMalformedValues) {
  auto spec = parse_spec("stride:table=abc");
  EXPECT_THROW(spec.get_uint("table", 0), std::invalid_argument);
  auto negative = parse_spec("nextline:degree=-1");
  EXPECT_THROW(negative.get_uint("degree", 0), common::InputError);  // not wrapped to 2^64-1
  auto trailing = parse_spec("nextline:degree=5x");
  EXPECT_THROW(trailing.get_uint("degree", 0), common::InputError);
  auto nan = parse_spec("dart:threshold=nan");
  try {
    nan.get_double("threshold", 0.5);
    ADD_FAILURE() << "threshold=nan was accepted";
  } catch (const common::InputError& e) {
    EXPECT_NE(std::string(e.what()).find("'threshold'"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parse_spec(":degree=2"), std::invalid_argument);
  EXPECT_THROW(parse_spec("stride:=2"), std::invalid_argument);
}

TEST(PrefetcherSpec, TracksUnusedKeys) {
  auto spec = parse_spec("stride:table=64,bogus=1");
  spec.get_uint("table", 0);
  const auto unused = spec.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "bogus");
}

// -------------------------------------------------------------- registry

TEST(PrefetcherRegistry, UnknownNameListsKnownPrefetchers) {
  try {
    sim::make_prefetcher("nosuchprefetcher");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nosuchprefetcher"), std::string::npos);
    EXPECT_NE(msg.find("stride"), std::string::npos);
    EXPECT_NE(msg.find("dart"), std::string::npos);
  }
}

TEST(PrefetcherRegistry, UnknownParameterIsRejected) {
  try {
    sim::make_prefetcher("stride:bogus=7");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(PrefetcherRegistry, BuildsParameterizedRuleBasedPrefetchers) {
  auto nextline = sim::make_prefetcher("nextline:degree=4");
  EXPECT_EQ(nextline->name(), "NextLine");
  auto stride = sim::make_prefetcher("stride:table=64,degree=4");
  EXPECT_EQ(stride->name(), "Stride");
  EXPECT_GT(stride->storage_bytes(), 0u);
  auto bo = sim::make_prefetcher("BO:latency=90,degree=2");
  EXPECT_EQ(bo->prediction_latency(), 90u);
  auto isb = sim::make_prefetcher("isb:granularity=128");
  EXPECT_EQ(isb->name(), "ISB");
  // label= renames a prefetcher for sweeps over one type.
  auto labeled = sim::make_prefetcher("stride:table=1024,label=Stride-1K");
  EXPECT_EQ(labeled->name(), "Stride-1K");
}

// Only prefetchers that learn from fills make the simulator queue demand
// fills; a label= rename and the NN adapters must not ask for them.
TEST(PrefetcherRegistry, TrainsOnFillFollowsTheWrappedPrefetcher) {
  EXPECT_FALSE(sim::make_prefetcher("stride:label=s")->trains_on_fill());
  EXPECT_TRUE(sim::make_prefetcher("bo:label=b")->trains_on_fill());
  auto predictor = std::make_shared<const tabular::TabularPredictor>(
      bench::synthetic_predictor(core::paper_student_config()));
  prefetch::DartPrefetcher dart(predictor, prefetch::NnAdapterOptions{});
  EXPECT_FALSE(dart.trains_on_fill());
}

TEST(PrefetcherRegistry, ModelBackedSpecsRequireContext) {
  EXPECT_THROW(sim::make_prefetcher("transfetch"), std::runtime_error);
  EXPECT_THROW(sim::make_prefetcher("voyager:ideal"), std::runtime_error);
  EXPECT_THROW(sim::make_prefetcher("dart:variant=s"), std::runtime_error);
}

TEST(PrefetcherRegistry, KnowsAllLegacyNames) {
  const auto& registry = sim::PrefetcherRegistry::instance();
  for (const char* name :
       {"NextLine", "Stride", "BO", "ISB", "TransFetch", "TransFetch-I", "Voyager",
        "Voyager-I", "DART-S", "DART", "DART-L"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_NO_THROW(registry.validate(name)) << name;
  }
}

// validate() runs the factory on a dry context: a bad value or an unknown
// key is refused up front, even on a spec whose model was never trained.
TEST(PrefetcherRegistry, ValidateRefusesBadParametersWithoutAModel) {
  const auto& registry = sim::PrefetcherRegistry::instance();
  for (const char* spec : {"bo:degree=x", "stride:bogus=7", "dart:quant=int8",
                           "dart-s:latency=-1", "transfetch:bogus=1", "voyager:threshold=abc"}) {
    EXPECT_THROW(registry.validate(spec), common::InputError) << spec;
  }
  for (const char* spec : {"bo:degree=4,label=B", "dart:variant=l,threshold=0.6,latency=80",
                           "transfetch:ideal", "voyager:sample=4"}) {
    EXPECT_NO_THROW(registry.validate(spec)) << spec;
  }
}

// ------------------------------------------------------ experiment runner

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

core::PipelineOptions smoke_options() {
  core::PipelineOptions o = core::PipelineOptions::bench_defaults();
  o.raw_accesses = 60000;
  o.prep.max_samples = 400;
  o.teacher_arch.layers = 1;
  o.teacher_arch.dim = 16;
  o.teacher_arch.heads = 2;
  o.teacher_arch.ffn_dim = 32;
  // Zero epochs: models stay untrained — construction/scheduling is under
  // test here, not predictive quality.
  o.teacher_train.epochs = 0;
  o.student_train.epochs = 0;
  o.tab.tables = tabular::TableConfig::uniform(8, 1);
  o.tab.max_train_samples = 100;
  return o;
}

TEST(ExperimentRunner, ConstructsEveryBuiltinPrefetcher) {
  core::ExperimentSpec spec;
  spec.pipeline = smoke_options();
  spec.workloads = {"462.libquantum"};
  spec.prefetchers = {"NextLine",   "Stride",    "BO",     "ISB",  "TransFetch",
                      "TransFetch-I", "Voyager", "Voyager-I", "DART-S", "DART", "DART-L"};
  spec.nn_trigger_sample = 64;  // keep untrained NN inference cheap
  const core::ExperimentResult result = core::ExperimentRunner(spec).run();
  ASSERT_EQ(result.cells.size(), spec.prefetchers.size());
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    // Display names match the legacy table labels, cells are in spec order.
    EXPECT_EQ(result.cells[i].prefetcher, spec.prefetchers[i]);
    EXPECT_EQ(result.cells[i].spec, spec.prefetchers[i]);
    EXPECT_GT(result.cells[i].baseline_ipc, 0.0);
    EXPECT_GT(result.cells[i].stats.cycles, 0u);
  }
  // The "-I" ideals are the zero-latency variants (Table IX).
  EXPECT_EQ(result.find("TransFetch-I", "462.libquantum")->latency_cycles, 0u);
  EXPECT_EQ(result.find("Voyager", "462.libquantum")->latency_cycles,
            core::kVoyagerLatencyCycles);
  EXPECT_GT(result.find("DART", "462.libquantum")->storage_bytes, 0u);
}

TEST(ExperimentRunner, DisambiguatesCollidingDisplayNames) {
  core::ExperimentSpec spec;
  spec.pipeline = smoke_options();
  spec.workloads = {"462.libquantum"};
  spec.prefetchers = {"stride:table=64", "stride:table=1024", "nextline"};
  spec.parallel = false;
  const core::ExperimentResult result = core::ExperimentRunner(spec).run();
  // Both stride configs must stay distinct rows (fall back to spec text);
  // the unambiguous prefetcher keeps its display name.
  const auto names = result.prefetchers();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "stride:table=64");
  EXPECT_EQ(names[1], "stride:table=1024");
  EXPECT_EQ(names[2], "NextLine");
}

TEST(ExperimentRunner, RejectsUnknownSpecBeforeTraining) {
  core::ExperimentSpec spec;
  spec.pipeline = smoke_options();
  spec.workloads = {"462.libquantum"};
  spec.prefetchers = {"BO", "nosuch:param=1"};
  EXPECT_THROW(core::ExperimentRunner(spec).run(), std::invalid_argument);
  spec.prefetchers = {"BO", "dart:quant=int8"};
  EXPECT_THROW(core::ExperimentRunner(spec).run(), common::InputError);
}

TEST(ExperimentRunner, SecondRunIntoSameStoreReusesEveryCell) {
  core::ExperimentSpec spec;
  spec.pipeline = smoke_options();
  spec.workloads = {"462.libquantum"};
  spec.prefetchers = {"NextLine", "stride:table=64,degree=4", "DART-S"};
  spec.parallel = false;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dart_registry_test_store";
  std::filesystem::remove_all(dir);
  spec.sweep.store_dir = dir.string();

  const core::ExperimentResult first = core::ExperimentRunner(spec).run();
  EXPECT_EQ(first.count(core::CellStatus::kDone), spec.prefetchers.size());
  const core::ExperimentResult second = core::ExperimentRunner(spec).run();
  EXPECT_EQ(second.count(core::CellStatus::kSkipped), spec.prefetchers.size());

  // The reused cells export exactly what the simulated ones did.
  const std::string first_csv = (dir / "first.csv").string();
  const std::string second_csv = (dir / "second.csv").string();
  ASSERT_TRUE(first.write_csv(first_csv));
  ASSERT_TRUE(second.write_csv(second_csv));
  EXPECT_EQ(slurp(first_csv), slurp(second_csv));
  std::filesystem::remove_all(dir);
}

TEST(ExperimentResult, CsvAndJsonExport) {
  core::ExperimentSpec spec;
  spec.pipeline = smoke_options();
  spec.workloads = {"462.libquantum"};
  spec.prefetchers = {"NextLine", "stride:table=64,degree=4", "NextLine:label=a\tb\"c"};
  spec.parallel = false;
  const core::ExperimentResult result = core::ExperimentRunner(spec).run();

  const std::string csv = "registry_test_cells.csv";
  ASSERT_TRUE(result.write_csv(csv));
  const std::string text = slurp(csv);
  EXPECT_EQ(text.rfind("spec,prefetcher,app,baseline_ipc,", 0), 0u);  // header first
  // The comma-bearing spec string is quoted.
  EXPECT_NE(text.find("\n\"stride:table=64,degree=4\",Stride,462.libquantum,"),
            std::string::npos);
  // A quote-bearing field is quoted with its quote doubled.
  EXPECT_NE(text.find("\n\"NextLine:label=a\tb\"\"c\",\"a\tb\"\"c\",462.libquantum,"),
            std::string::npos);

  const std::string json = "registry_test_cells.json";
  ASSERT_TRUE(result.write_json(json));
  const std::string content = slurp(json);
  EXPECT_NE(content.find("\"prefetcher\": \"Stride\""), std::string::npos);
  EXPECT_NE(content.find("\"baseline_ipc\""), std::string::npos);
  // Control characters are escaped: JSON forbids a raw tab in a string.
  EXPECT_NE(content.find("\"prefetcher\": \"a\\u0009b\\\"c\""), std::string::npos);
  EXPECT_EQ(content.find('\t'), std::string::npos);
  std::remove(csv.c_str());
  std::remove(json.c_str());
}

// ------------------------------------------------------- bench sweep grid

/// Sets (value != nullptr) or unsets one environment variable for a scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(PrefetchSweep, ExtraWorkloadsFollowTheTableIvApps) {
  const std::string extra = "trace:uniform,footprint=64M";
  const std::string extra_spec = trace::Workload::parse(extra).spec();
  ScopedEnv workloads("DART_WORKLOADS", extra.c_str());
  {
    // DART_APPS unset: the Figs. 12-14 grid still spans all eight apps.
    ScopedEnv apps("DART_APPS", nullptr);
    const std::vector<std::string> rows = bench::prefetch_sweep_spec().workloads;
    ASSERT_EQ(rows.size(), trace::all_apps().size() + 1);
    for (std::size_t i = 0; i < trace::all_apps().size(); ++i) {
      EXPECT_EQ(rows[i], trace::app_name(trace::all_apps()[i]));
    }
    EXPECT_EQ(rows.back(), extra_spec);
    // DART_WORKLOADS never narrows the per-app benches.
    EXPECT_EQ(bench::bench_apps().size(), trace::all_apps().size());
  }
  {
    ScopedEnv apps("DART_APPS", "605.mcf");
    EXPECT_EQ(bench::prefetch_sweep_spec().workloads,
              (std::vector<std::string>{"605.mcf", extra_spec}));
    EXPECT_EQ(bench::bench_apps(), std::vector<trace::App>{trace::App::kMcf});
  }
}

}  // namespace
}  // namespace dart
