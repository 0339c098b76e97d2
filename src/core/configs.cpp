#include "core/configs.hpp"

#include "common/text.hpp"

namespace dart::core {

trace::PreprocessOptions default_preprocess() {
  trace::PreprocessOptions p;
  p.history = 8;
  p.segment_bits = 6;
  p.addr_segments = 8;
  p.pc_segments = 8;
  p.bitmap_size = 128;
  p.lookforward = 16;
  return p;
}

namespace {
nn::ModelConfig base_arch() {
  const auto prep = default_preprocess();
  nn::ModelConfig m;
  m.seq_len = prep.history;
  m.addr_dim = prep.addr_segments;
  m.pc_dim = prep.pc_segments;
  m.out_dim = prep.bitmap_size;
  return m;
}
}  // namespace

nn::ModelConfig paper_teacher_config() {
  nn::ModelConfig m = base_arch();
  m.layers = 4;
  m.dim = 256;
  m.heads = 8;
  m.ffn_dim = 4 * m.dim;
  return m;
}

nn::ModelConfig paper_student_config() {
  nn::ModelConfig m = base_arch();
  m.layers = 1;
  m.dim = 32;
  m.heads = 2;
  m.ffn_dim = 4 * m.dim;
  return m;
}

nn::ModelConfig bench_teacher_config() {
  if (common::env_uint("DART_PAPER_SCALE", 0) != 0) return paper_teacher_config();
  nn::ModelConfig m = base_arch();
  m.layers = 2;
  m.dim = 64;
  m.heads = 4;
  m.ffn_dim = 4 * m.dim;
  return m;
}

tabular::TableConfig dart_table_config() { return tabular::TableConfig::uniform(128, 2); }

DartVariant dart_s_variant() {
  nn::ModelConfig m = base_arch();
  m.layers = 1;
  m.dim = 16;
  m.heads = 2;
  m.ffn_dim = 4 * m.dim;
  return {"DART-S", 60, 30e3, m, tabular::TableConfig::uniform(16, 1)};
}

DartVariant dart_variant() {
  nn::ModelConfig m = paper_student_config();
  return {"DART", 100, 1e6, m, tabular::TableConfig::uniform(128, 2)};
}

DartVariant dart_l_variant() {
  nn::ModelConfig m = base_arch();
  m.layers = 2;
  m.dim = 32;
  m.heads = 2;
  m.ffn_dim = 4 * m.dim;
  return {"DART-L", 200, 4e6, m, tabular::TableConfig::uniform(256, 2)};
}

}  // namespace dart::core
