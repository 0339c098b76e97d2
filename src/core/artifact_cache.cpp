#include "core/artifact_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/configs.hpp"
#include "io/artifact.hpp"
#include "tabular/complexity.hpp"

namespace dart::core {

namespace {

/// Resolves the Table VIII variant for `request`, with table overrides.
DartVariant resolve_variant(const sim::DartModelRequest& request) {
  const std::string variant = normalize_dart_variant(request.variant);
  DartVariant v;
  if (variant == "s") {
    v = dart_s_variant();
  } else if (variant == "l") {
    v = dart_l_variant();
  } else if (variant == "default") {
    v = dart_variant();
  } else {
    throw common::InputError("unknown DART variant '" + request.variant +
                             "' (expected s, default or l)");
  }
  if (request.table_k != 0 || request.table_c != 0) {
    v.tables = tabular::TableConfig::uniform(
        request.table_k != 0 ? request.table_k : v.tables.attention.k,
        request.table_c != 0 ? request.table_c : v.tables.attention.c, v.tables.data_bits);
  }
  return v;
}

}  // namespace

std::string normalize_dart_variant(const std::string& variant) {
  std::string v = common::lower(variant);
  if (v == "m" || v.empty()) v = "default";
  return v;
}

std::string dart_config_key(const trace::Workload& workload, const PipelineOptions& options,
                            const sim::DartModelRequest& request) {
  std::ostringstream key;
  key << pipeline_cache_key(workload, options) << '/' << normalize_dart_variant(request.variant)
      << '/' << request.table_k << '/' << request.table_c;
  const std::string text = key.str();
  std::ostringstream hex;
  hex << std::hex;
  hex.width(16);
  hex.fill('0');
  hex << io::fnv1a64(text.data(), text.size());
  return hex.str();
}

std::string dart_artifact_path(const std::string& dir, const trace::Workload& workload,
                               const PipelineOptions& options,
                               const sim::DartModelRequest& request) {
  std::ostringstream path;
  path << dir << '/' << workload.name() << "-dart-" << normalize_dart_variant(request.variant);
  if (request.table_k != 0) path << "-k" << request.table_k;
  if (request.table_c != 0) path << "-c" << request.table_c;
  path << '-' << dart_config_key(workload, options, request) << ".dart";
  return path.str();
}

TrainedDart train_dart(Pipeline& pipe, const sim::DartModelRequest& request) {
  const PipelineOptions& popts = pipe.options();
  const DartVariant v = resolve_variant(request);
  const std::string variant = normalize_dart_variant(request.variant);

  tabular::TabularizeOptions tab = popts.tab;
  tab.tables = v.tables;
  // Simulation queries must be O(log K): use the hash-tree encoder.
  tab.encoder = pq::EncoderKind::kHashTree;

  TrainedDart out;
  const bool reuse_default_student = variant != "s" && variant != "l";
  if (reuse_default_student) {
    out.predictor = pipe.tabularize(tab);
  } else {
    PipelineOptions po = popts;
    po.student_arch = v.arch;
    Pipeline variant_pipe(pipe.workload(), po);
    // Share the prepared data by re-preparing (deterministic: same seed).
    variant_pipe.prepare();
    nn::AddressPredictor& teacher = pipe.teacher();
    nn::AddressPredictor student(v.arch, common::derive_seed(po.seed, 3));
    nn::train_distill(student, teacher, variant_pipe.train_set(), po.student_train, po.kd);
    out.predictor = tabular::tabularize(student, variant_pipe.train_set().addr,
                                        variant_pipe.train_set().pc, tab);
  }
  out.tables = v.tables;
  out.prep = popts.prep;
  out.display_name = v.name;
  out.latency_cycles = tabular::tabular_model_cost(v.arch, v.tables).latency_cycles;
  out.config_key = dart_config_key(pipe.workload(), popts, request);
  return out;
}

std::optional<sim::DartModel> try_load_dart_artifact(const std::string& path,
                                                     const std::string& expected_config_key) {
  if (path.empty() || !std::filesystem::exists(path)) return std::nullopt;
  try {
    io::ArtifactInfo info;
    auto predictor =
        std::make_shared<tabular::TabularPredictor>(io::load_predictor_artifact(path, &info));
    if (info.meta.config_key != expected_config_key) return std::nullopt;  // stale
    sim::DartModel model;
    model.predictor = std::move(predictor);
    model.latency_cycles = static_cast<std::size_t>(info.meta.latency_cycles);
    model.display_name = info.meta.display_name;
    return model;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[dart] ignoring unreadable artifact %s: %s\n", path.c_str(),
                 e.what());
    return std::nullopt;
  }
}

namespace {

/// Shared tail of the loud reload paths: wraps the predictor as a
/// sim::DartModel.
sim::DartModel finish_loud_load(tabular::TabularPredictor&& loaded, const io::ArtifactInfo& local,
                                io::ArtifactInfo* info) {
  sim::DartModel model;
  model.predictor = std::make_shared<tabular::TabularPredictor>(std::move(loaded));
  model.latency_cycles = static_cast<std::size_t>(local.meta.latency_cycles);
  if (!local.meta.display_name.empty()) model.display_name = local.meta.display_name;
  if (info != nullptr) *info = local;
  return model;
}

}  // namespace

sim::DartModel load_dart_artifact(const std::string& path, io::ArtifactInfo* info) {
  io::ArtifactInfo local;
  return finish_loud_load(io::load_predictor_artifact(path, &local), local, info);
}

sim::DartModel load_dart_artifact_bytes(std::vector<std::uint8_t> bytes, const std::string& name,
                                        io::ArtifactInfo* info) {
  io::ArtifactInfo local;
  return finish_loud_load(io::load_predictor_artifact_bytes(std::move(bytes), name, &local),
                          local, info);
}

bool save_dart_artifact(const std::string& path, const trace::Workload& workload,
                        const TrainedDart& model, const std::string& producer) {
  try {
    std::error_code ec;
    std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
    io::ArtifactMeta meta;
    meta.producer = producer;
    meta.app = workload.spec();
    meta.display_name = model.display_name;
    meta.config_key = model.config_key;
    meta.latency_cycles = model.latency_cycles;
    meta.tables = model.tables;
    meta.prep = model.prep;
    io::save_predictor_artifact(path, model.predictor, meta);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[dart] could not write artifact %s: %s\n", path.c_str(), e.what());
    return false;
  }
}

}  // namespace dart::core
