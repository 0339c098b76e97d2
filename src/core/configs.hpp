// Canonical model / table configurations used across benches and examples:
// the paper's Table V (Teacher, Student, DART) and Table VIII (DART-S,
// DART, DART-L), plus CPU-friendly scaled-down training defaults
// (substitution #3 in DESIGN.md — set DART_PAPER_SCALE=1 to use the paper's
// full teacher).
#pragma once

#include "nn/transformer.hpp"
#include "tabular/complexity.hpp"
#include "trace/preprocess.hpp"

namespace dart::core {

/// Shared data-pipeline geometry: T=8 history, 8 address/PC segments of 6
/// bits, 128-wide delta bitmap, 8-access look-forward window.
trace::PreprocessOptions default_preprocess();

/// Table IX prediction latencies of the NN baselines, in cycles ("4.5K" and
/// "27.7K" in the paper). Used both as the registry defaults for the
/// transfetch/voyager entries and for the Table IX display rows.
inline constexpr std::size_t kTransFetchLatencyCycles = 4500;
inline constexpr std::size_t kVoyagerLatencyCycles = 27700;

/// The paper's Table V Teacher: L=4, D=256, H=8 (DF = 4D, DO = 128).
nn::ModelConfig paper_teacher_config();

/// The paper's Table V Student (also the DART backbone): L=1, D=32, H=2.
nn::ModelConfig paper_student_config();

/// Scaled teacher used for CPU training benches by default: L=2, D=64, H=4.
/// Honors DART_PAPER_SCALE=1 to return paper_teacher_config().
nn::ModelConfig bench_teacher_config();

/// Table V DART tables: K=128, C=2 over the student architecture.
tabular::TableConfig dart_table_config();

/// Table VIII variants (architecture, tables) as published.
struct DartVariant {
  const char* name;
  std::size_t tau_cycles;   ///< latency constraint
  double storage_bytes;     ///< storage constraint
  nn::ModelConfig arch;
  tabular::TableConfig tables;
};

DartVariant dart_s_variant();  ///< (1, 16, 2, 16, 1) under (60, 30K)
DartVariant dart_variant();    ///< (1, 32, 2, 128, 2) under (100, 1M)
DartVariant dart_l_variant();  ///< (2, 32, 2, 256, 2) under (200, 4M)

}  // namespace dart::core
