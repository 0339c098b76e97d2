// Train-once artifact cache for deployable DART models (DESIGN.md §7).
//
// One place owns the "trace -> teacher -> distilled student -> tabularize"
// recipe for a requested DART variant (`train_dart`) and the persistence of
// its result as a versioned `.dart` artifact. Three consumers share it:
// `core::ExperimentRunner` (per-cell caching keyed by configuration hash),
// `tools/dart_train` (explicit artifact production), and `tools/dart_run`
// (training-free serving). Stale artifacts — anything produced under
// different pipeline knobs — are rejected by comparing the embedded
// configuration key, never silently reused.
#pragma once

#include <optional>
#include <string>

#include "core/pipeline.hpp"
#include "io/artifact.hpp"
#include "sim/registry.hpp"

namespace dart::core {

/// A freshly trained (or reloaded) deployable DART model plus everything
/// needed to persist and serve it.
struct TrainedDart {
  tabular::TabularPredictor predictor;
  tabular::TableConfig tables;        ///< resolved <K, C> configuration
  trace::PreprocessOptions prep;      ///< input geometry for serving
  std::string display_name;           ///< e.g. "DART-L"
  std::size_t latency_cycles = 0;     ///< Eq. 22 cost-model latency
  std::string config_key;             ///< dart_config_key of the producer
};

/// Canonical variant key: lowercased, "" / "m" collapse to "default".
/// Shared by model builders, cache keys, and artifact file names so
/// "dart:variant=L", "DART-L" and "l" all resolve to one model.
std::string normalize_dart_variant(const std::string& variant);

/// Cache key covering the full producing configuration of `request` for
/// `workload` under `options`: the pipeline_cache_key plus the variant and
/// any table overrides. 16 hex digits. (trace::App converts implicitly.)
std::string dart_config_key(const trace::Workload& workload, const PipelineOptions& options,
                            const sim::DartModelRequest& request);

/// Artifact file path `<dir>/<workload>-dart-<variant>[-kK-cC]-<key>.dart`
/// (workload display names are filesystem-safe by construction).
std::string dart_artifact_path(const std::string& dir, const trace::Workload& workload,
                               const PipelineOptions& options,
                               const sim::DartModelRequest& request);

/// Trains the requested variant against `pipe` (the paper's Table VIII
/// setup: the default variant tabularizes the pipeline's cached student;
/// S/L distill a student at the variant's architecture from the shared
/// teacher). Simulation-bound consumers get the hash-tree encoder (O(log K)
/// queries), matching the paper's latency model.
TrainedDart train_dart(Pipeline& pipe, const sim::DartModelRequest& request);

/// Loads `path` as a ready-to-serve sim::DartModel when the file exists and
/// embeds exactly `expected_config_key`. Returns nullopt when missing or
/// stale; a corrupted/unreadable file is reported to stderr and also
/// returns nullopt (the caller retrains and overwrites).
std::optional<sim::DartModel> try_load_dart_artifact(const std::string& path,
                                                     const std::string& expected_config_key);

/// The serving reload path (DESIGN.md §9): loads `path` with NO config-key
/// staleness check — hot-swap accepts any valid artifact of compatible
/// geometry as the next epoch; the caller (serve::PrefetchServer) enforces
/// geometry compatibility itself. Unlike try_load_dart_artifact this is
/// loud: it throws io::ArtifactError on missing/corrupted/version-mismatched
/// files, because a failed swap must surface to the operator, never be
/// silently skipped. Optionally fills `info` with the parsed header.
sim::DartModel load_dart_artifact(const std::string& path, io::ArtifactInfo* info = nullptr);

/// load_dart_artifact over an in-memory byte image (`name` labels errors).
/// The validate-then-publish swap path (serve::PrefetchServer::swap_artifact,
/// DESIGN.md §11) reads the file once, optionally lets the fault injector
/// damage the image, and parses it fully before any epoch is published.
sim::DartModel load_dart_artifact_bytes(std::vector<std::uint8_t> bytes, const std::string& name,
                                        io::ArtifactInfo* info = nullptr);

/// Persists a trained model at `path` (creating parent directories).
/// Best-effort: returns false and warns on I/O failure — a read-only cache
/// directory must never fail the producing run.
bool save_dart_artifact(const std::string& path, const trace::Workload& workload,
                        const TrainedDart& model, const std::string& producer);

}  // namespace dart::core
