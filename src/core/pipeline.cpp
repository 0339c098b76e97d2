#include "core/pipeline.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/configs.hpp"
#include "io/artifact.hpp"
#include "nn/serialize.hpp"
#include "sim/simulator.hpp"

namespace dart::core {

namespace {

void append_train(io::ByteWriter& w, const nn::TrainOptions& t) {
  w.u64(t.epochs);
  w.u64(t.batch_size);
  w.f32(t.lr);
  w.f32(t.pos_weight);
  w.u64(t.shuffle_seed);
}

/// Restores `model` from `path` when the checkpoint exists and matches the
/// architecture; any failure (missing, stale, corrupt) just means "train".
/// CAUTION: load_params copies tensors into the live model before it can
/// detect a truncated tail, so on `false` the model may hold a mix of
/// checkpoint and seeded weights — callers must reinitialize it before
/// training (see the call sites).
template <typename Model>
bool try_load_checkpoint(Model& model, const std::string& path) {
  if (path.empty() || !std::filesystem::exists(path)) return false;
  try {
    nn::load_model(model, path);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[dart] ignoring stale checkpoint %s: %s\n", path.c_str(), e.what());
    return false;
  }
}

/// Best-effort save: a read-only cache directory degrades to retraining
/// next run, never to a failure of the current one. Writes to a temp file
/// and renames, so a crash mid-write cannot leave a truncated checkpoint
/// under the final name.
template <typename Model>
void save_checkpoint(Model& model, const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  const std::string tmp = path + ".tmp";
  if (!nn::save_model(model, tmp)) {
    std::fprintf(stderr, "[dart] could not write checkpoint %s\n", path.c_str());
    std::filesystem::remove(tmp, ec);
    return;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::fprintf(stderr, "[dart] could not rename checkpoint into %s\n", path.c_str());
    std::filesystem::remove(tmp, ec);
  }
}

}  // namespace

std::string pipeline_cache_key(const trace::Workload& workload, const PipelineOptions& o) {
  // Field lists come from the io codecs shared with the artifact chunks, so
  // a new struct field can never update the stored format but not the key.
  io::ByteWriter w;
  w.str(workload.spec());
  io::put_prep(w, o.prep);
  io::put_model_config(w, o.teacher_arch);
  io::put_model_config(w, o.student_arch);
  append_train(w, o.teacher_train);
  append_train(w, o.student_train);
  w.f32(o.kd.temperature);
  w.f32(o.kd.lambda);
  io::put_table_config(w, o.tab.tables);
  w.u8(o.tab.fine_tune ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(o.tab.ft.method));
  w.f32(o.tab.ft.ridge_lambda);
  w.u64(o.tab.ft.epochs);
  w.u64(o.tab.ft.batch_size);
  w.f32(o.tab.ft.lr);
  w.u64(o.tab.ft.seed);
  w.u8(static_cast<std::uint8_t>(o.tab.attention_activation));
  w.u8(static_cast<std::uint8_t>(o.tab.encoder));
  w.u64(o.tab.kmeans_iters);
  w.u64(o.tab.max_train_samples);
  w.u64(o.tab.seed);
  // Trace generation + LLC extraction geometry (they shape the dataset).
  w.u64(o.raw_accesses);
  w.f32(static_cast<float>(o.train_frac));
  w.u64(o.seed);
  for (std::size_t v : {o.sim.l1_size, o.sim.l1_ways, o.sim.l1_mshrs, o.sim.l2_size,
                        o.sim.l2_ways, o.sim.l2_mshrs, o.sim.llc_size, o.sim.llc_ways,
                        o.sim.llc_mshrs}) {
    w.u64(v);
  }
  std::ostringstream hex;
  hex << std::hex;
  hex.width(16);
  hex.fill('0');
  hex << io::fnv1a64(w.bytes().data(), w.size());
  return hex.str();
}

PipelineOptions PipelineOptions::bench_defaults() {
  PipelineOptions o;
  o.prep = default_preprocess();
  o.teacher_arch = bench_teacher_config();
  o.student_arch = paper_student_config();
  o.teacher_train.epochs = common::env_uint("DART_EPOCHS", 6);
  o.teacher_train.batch_size = 64;
  o.teacher_train.lr = 1e-3f;
  o.student_train = o.teacher_train;
  o.kd.temperature = 2.0f;
  o.kd.lambda = 0.5f;
  o.tab.tables = dart_table_config();
  o.tab.max_train_samples = 2048;
  o.raw_accesses = common::env_uint("DART_SIM_INSTR", 400000);
  o.prep.max_samples = common::env_uint("DART_TRAIN_SAMPLES", 6000);
  o.artifact_dir = common::env_string("DART_ARTIFACT_DIR", "");
  return o;
}

std::string Pipeline::checkpoint_path(const char* model) {
  if (opts_.artifact_dir.empty()) return "";
  if (cache_key_.empty()) cache_key_ = pipeline_cache_key(workload_, opts_);
  return opts_.artifact_dir + "/" + workload_.name() + "-" + model + "-" + cache_key_ + ".ckpt";
}

Pipeline::Pipeline(trace::Workload workload, const PipelineOptions& options)
    : workload_(std::move(workload)), opts_(options) {}

void Pipeline::prepare() {
  if (prepared_) return;
  raw_ = workload_.generate(opts_.raw_accesses, common::derive_seed(opts_.seed, 1));
  // The calling thread's SimWorkspace supplies the L1/L2 filter state, so
  // per-app preprocessing reuses cache arrays instead of reallocating.
  llc_ = sim::extract_llc_trace(raw_, opts_.sim, sim::thread_local_sim_workspace());
  // Guard against workloads that are so cache-friendly the LLC stream is
  // too short to window: fall back to the raw trace.
  const std::size_t need = opts_.prep.history + opts_.prep.lookforward + 64;
  const trace::MemoryTrace& source = llc_.size() >= need ? llc_ : raw_;
  nn::Dataset all = trace::make_dataset(source, opts_.prep);
  // Temporal split: train on the prefix, test on the suffix.
  auto [train, test] = all.split(opts_.train_frac);
  train_ = std::move(train);
  test_ = std::move(test);
  prepared_ = true;
}

nn::AddressPredictor& Pipeline::teacher() {
  if (!teacher_) {
    prepare();
    teacher_ = std::make_shared<nn::AddressPredictor>(opts_.teacher_arch,
                                                      common::derive_seed(opts_.seed, 2));
    const std::string ckpt = checkpoint_path("teacher");
    if (!try_load_checkpoint(*teacher_, ckpt)) {
      // Rebuild from the seeded init: a corrupt checkpoint may have
      // partially overwritten the weights before the load failed.
      teacher_ = std::make_shared<nn::AddressPredictor>(opts_.teacher_arch,
                                                        common::derive_seed(opts_.seed, 2));
      nn::train_bce(*teacher_, train_, opts_.teacher_train);
      save_checkpoint(*teacher_, ckpt);
    }
  }
  return *teacher_;
}

std::shared_ptr<nn::AddressPredictor> Pipeline::teacher_shared() {
  teacher();
  return teacher_;
}

nn::AddressPredictor& Pipeline::student_no_kd() {
  if (!student_no_kd_) {
    prepare();
    student_no_kd_ = std::make_unique<nn::AddressPredictor>(opts_.student_arch,
                                                            common::derive_seed(opts_.seed, 3));
    nn::train_bce(*student_no_kd_, train_, opts_.student_train);
  }
  return *student_no_kd_;
}

nn::AddressPredictor& Pipeline::student() {
  if (!student_) {
    prepare();
    student_ = std::make_unique<nn::AddressPredictor>(opts_.student_arch,
                                                      common::derive_seed(opts_.seed, 3));
    const std::string ckpt = checkpoint_path("student");
    // A student checkpoint hit also skips teacher training entirely — the
    // teacher's only role in the distilled pipeline is producing the
    // student's soft targets.
    if (!try_load_checkpoint(*student_, ckpt)) {
      student_ = std::make_unique<nn::AddressPredictor>(opts_.student_arch,
                                                        common::derive_seed(opts_.seed, 3));
      nn::train_distill(*student_, teacher(), train_, opts_.student_train, opts_.kd);
      save_checkpoint(*student_, ckpt);
    }
  }
  return *student_;
}

tabular::TabularPredictor Pipeline::tabularize(const tabular::TabularizeOptions& options,
                                               tabular::TabularizeReport* report) {
  nn::AddressPredictor& s = student();
  return tabular::tabularize(s, train_.addr, train_.pc, options, report);
}

tabular::TabularPredictor& Pipeline::dart() {
  if (!dart_) {
    dart_ = std::make_unique<tabular::TabularPredictor>(tabularize(opts_.tab));
  }
  return *dart_;
}

nn::LstmPredictor& Pipeline::lstm_baseline() {
  if (!lstm_) {
    prepare();
    lstm_ = std::make_shared<nn::LstmPredictor>(
        opts_.prep.addr_segments, opts_.prep.pc_segments, /*hidden=*/64,
        opts_.prep.bitmap_size, common::derive_seed(opts_.seed, 4));
    const std::string ckpt = checkpoint_path("lstm");
    if (!try_load_checkpoint(*lstm_, ckpt)) {
      lstm_ = std::make_shared<nn::LstmPredictor>(
          opts_.prep.addr_segments, opts_.prep.pc_segments, /*hidden=*/64,
          opts_.prep.bitmap_size, common::derive_seed(opts_.seed, 4));
      nn::train_bce(*lstm_, train_, opts_.student_train);
      save_checkpoint(*lstm_, ckpt);
    }
  }
  return *lstm_;
}

std::shared_ptr<nn::LstmPredictor> Pipeline::lstm_baseline_shared() {
  lstm_baseline();
  return lstm_;
}

nn::F1Result Pipeline::eval_nn(nn::AddressPredictor& model) {
  prepare();
  return nn::evaluate_f1(model, test_);
}

nn::F1Result Pipeline::eval_lstm(nn::LstmPredictor& model) {
  prepare();
  return nn::evaluate_f1(model, test_);
}

nn::F1Result Pipeline::eval_tabular(const tabular::TabularPredictor& model) {
  prepare();
  return evaluate_tabular_f1(model, test_);
}

const nn::Dataset& Pipeline::train_set() {
  prepare();
  return train_;
}

const nn::Dataset& Pipeline::test_set() {
  prepare();
  return test_;
}

const trace::MemoryTrace& Pipeline::raw_trace() {
  prepare();
  return raw_;
}

const trace::MemoryTrace& Pipeline::llc_trace() {
  prepare();
  return llc_;
}

nn::F1Result evaluate_tabular_f1(const tabular::TabularPredictor& model, const nn::Dataset& data,
                                 std::size_t batch) {
  std::size_t tp = 0, fp = 0, fn = 0;
  for (std::size_t begin = 0; begin < data.size(); begin += batch) {
    const std::size_t end = std::min(data.size(), begin + batch);
    nn::Dataset b = data.slice(begin, end);
    nn::Tensor probs = model.forward(b.addr, b.pc);
    nn::F1Result r = nn::f1_score_from_probs(probs, b.labels);
    tp += r.true_pos;
    fp += r.false_pos;
    fn += r.false_neg;
  }
  nn::F1Result total;
  total.true_pos = tp;
  total.false_pos = fp;
  total.false_neg = fn;
  total.precision = (tp + fp) > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 0.0;
  total.recall = (tp + fn) > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 0.0;
  total.f1 = (total.precision + total.recall) > 0.0
                 ? 2.0 * total.precision * total.recall / (total.precision + total.recall)
                 : 0.0;
  return total;
}

}  // namespace dart::core
