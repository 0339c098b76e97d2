// Versioned model-artifact store: the `.dart` container (DESIGN.md §7).
//
// A `.dart` file is the complete deployment bundle of one tabularized DART
// predictor — PQ codebooks and hash-tree encoders, the transposed [C][K][DO]
// linear-kernel tables, both attention tables per head, LayerNorm
// parameters, the sigmoid LUT, the originating ModelConfig, and producer
// metadata (app, display name, latency from the Eq. 22 cost model, the
// preprocessing geometry, and a configuration cache key). Serving processes
// (`tools/dart_run`, the `dart-artifact` prefetcher spec) cold-start from it
// in milliseconds, with predictions bit-exact vs the training process.
//
// Container layout (chunk-tagged, little-endian, 8-byte aligned; the full
// byte-level spec is DESIGN.md §7):
//
//   [magic 8B] [version u32] [flags u32]
//   repeated chunks: [tag 4B] [length u64] [payload] [pad to 8]
//   final chunk "CSUM": FNV-1a 64 over every preceding file byte
//
// Unknown chunk tags are skipped on load (forward compatibility); breaking
// layout changes bump the version, which loaders reject with a clean error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/bytes.hpp"
#include "nn/transformer.hpp"
#include "tabular/complexity.hpp"
#include "tabular/linear_kernel.hpp"
#include "tabular/tabular_predictor.hpp"
#include "trace/preprocess.hpp"

namespace dart::io {

/// Current container format version. Readers reject newer (or unknown
/// older) versions with ArtifactError instead of misparsing.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Producer metadata stored in the META chunk. Everything here is
/// informational except `config_key`, which cache layers compare against
/// the expected key of the producing configuration to detect stale files.
struct ArtifactMeta {
  std::string producer;       ///< e.g. "dart_train", "experiment_runner"
  std::string app;            ///< Table IV app name, e.g. "605.mcf"
  std::string display_name;   ///< e.g. "DART-L"
  std::string config_key;     ///< producing-configuration hash (cache key)
  std::uint64_t latency_cycles = 0;  ///< Eq. 22 cost-model latency
  tabular::TableConfig tables;       ///< the <K, C> table configuration
  /// Preprocessing geometry the model was trained with — a serving process
  /// must build inference inputs (segmentation, bitmap width) identically.
  trace::PreprocessOptions prep;
};

/// Parsed header + metadata of an artifact (without the model payload).
struct ArtifactInfo {
  std::uint32_t format_version = 0;
  /// FNV-1a 64 over the whole file body (the CSUM value): a content hash
  /// usable as a cache/identity key for the trained model.
  std::uint64_t content_hash = 0;
  ArtifactMeta meta;
  nn::ModelConfig arch;
};

/// Writes `predictor` plus `meta` to `path` as a `.dart` artifact.
/// Returns the content hash. Throws ArtifactError on I/O failure.
std::uint64_t save_predictor_artifact(const std::string& path,
                                      const tabular::TabularPredictor& predictor,
                                      const ArtifactMeta& meta);

/// Loads a predictor artifact; the returned predictor's outputs are
/// bit-exact vs the instance that was saved. Optionally fills `info` with
/// the header/metadata. Throws ArtifactError on missing, truncated,
/// corrupted, or version-mismatched files.
tabular::TabularPredictor load_predictor_artifact(const std::string& path,
                                                  ArtifactInfo* info = nullptr);

/// Reads the raw bytes of the artifact file at `path` (no parsing). Throws
/// ArtifactError on I/O failure. Pairs with load_predictor_artifact_bytes
/// so callers can validate an image fully before acting on it — the
/// serve-side validate-then-publish reload (DESIGN.md §11) and the
/// fault-injection hooks both work on this byte image.
std::vector<std::uint8_t> read_artifact_file(const std::string& path);

/// Parses a predictor artifact from an in-memory byte image. `name` labels
/// error messages (usually the originating path). Error strings carry the
/// failing chunk tag and file byte offset, e.g.
/// "model.dart: chunk 'TPRD' at byte offset 128: truncated ...".
tabular::TabularPredictor load_predictor_artifact_bytes(std::vector<std::uint8_t> bytes,
                                                        const std::string& name,
                                                        ArtifactInfo* info = nullptr);

/// Reads only the header + META/ARCH chunks (still checksum-verified).
/// Throws ArtifactError on any container-level problem.
ArtifactInfo read_artifact_info(const std::string& path);

/// Writes a fused multi-layer table — a one-codebook LinearKernel, as built
/// by LinearKernel::fused — as a `.dart` artifact (FUSD chunk). Returns the
/// content hash. Throws ArtifactError on I/O failure or when the kernel has
/// more than one codebook: the FUSD chunk has no C field.
std::uint64_t save_fused_artifact(const std::string& path, const tabular::LinearKernel& kernel,
                                  const ArtifactMeta& meta = {});

/// Loads a fused-table artifact saved by `save_fused_artifact` as a
/// one-codebook LinearKernel; bit-exact. Throws ArtifactError on malformed
/// files.
tabular::LinearKernel load_fused_artifact(const std::string& path, ArtifactInfo* info = nullptr);

// Shared config field codecs. The artifact chunks and the configuration
// cache keys (core::pipeline_cache_key) serialize through the SAME
// functions, so adding a field to one of these structs cannot desync the
// staleness detection from the stored format.

/// Appends the eight nn::ModelConfig fields.
void put_model_config(ByteWriter& w, const nn::ModelConfig& config);
/// Appends the four <K, C> pairs plus data_bits of a TableConfig.
void put_table_config(ByteWriter& w, const tabular::TableConfig& tables);
/// Appends the seven trace::PreprocessOptions fields.
void put_prep(ByteWriter& w, const trace::PreprocessOptions& prep);

}  // namespace dart::io
