// Extensible prefetcher registry (DESIGN.md §4).
//
// Every prefetcher the experiment harness knows is a named factory keyed by
// a *spec string* in the one spec grammar of common::Spec (DESIGN.md §4),
// with ':' after the name: "stride:table=256,degree=4",
// "dart:variant=l,threshold=0.6" or "transfetch:ideal". Legacy display
// names ("DART-S", "TransFetch-I") are registered as aliases that imply the
// matching parameters, so every spec the old hard-coded driver accepted
// still works.
//
// Factories receive a `PrefetcherContext` that lends them *lazy* access to
// trained pipeline artifacts (attention teacher, LSTM baseline, tabularized
// DART predictor). Rule-based prefetchers ignore the context entirely, so
// they can be built with the context-free `make_prefetcher(spec)` overload.
//
// Adding a scenario is now a registry entry plus a spec string — never an
// edit to the evaluation driver.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/text.hpp"
#include "sim/prefetcher.hpp"
#include "trace/preprocess.hpp"

namespace dart::nn {
class AddressPredictor;
class LstmPredictor;
}  // namespace dart::nn
namespace dart::tabular {
class TabularPredictor;
}  // namespace dart::tabular

namespace dart::sim {

/// A parsed prefetcher spec: common::Spec::parse(text, ':', "prefetcher
/// spec"). Every spec also accepts `label=<name>` to override the display
/// name.
using PrefetcherSpec = common::Spec;

/// Request for a tabularized DART predictor, as expressed in a spec
/// ("dart:variant=s", optionally with table overrides).
struct DartModelRequest {
  std::string variant = "default";  ///< "s" | "default" | "l"
  std::size_t table_k = 0;          ///< 0 = variant default
  std::size_t table_c = 0;          ///< 0 = variant default
};

/// A trained tabular predictor plus its analytic cost-model latency.
struct DartModel {
  std::shared_ptr<const tabular::TabularPredictor> predictor;  ///< shared, immutable
  std::size_t latency_cycles = 0;      ///< Eq. 22 prediction latency
  std::string display_name = "DART";   ///< Table VIII variant name
};

/// Lends factories lazy, shared access to trained pipeline artifacts. The
/// providers are std::functions so the owner (core::ExperimentRunner, a
/// test, a custom harness) decides where models come from and how training
/// is synchronized; factories that need a missing provider throw.
struct PrefetcherContext {
  trace::PreprocessOptions prep;       ///< must match the training pipeline
  std::size_t degree = 16;             ///< default max predictions/trigger
  std::size_t nn_trigger_sample = 1;   ///< default NN-baseline sampling
  /// Directory where the owning harness caches trained artifacts (`.dart`
  /// files, NN checkpoints) — see core/artifact_cache.hpp. Informational
  /// for factories; providers below are expected to consult it themselves.
  /// Empty when caching is disabled.
  std::string artifact_dir;

  /// Lazily trains/loads the attention teacher shared by this app's cells.
  std::function<std::shared_ptr<nn::AddressPredictor>()> attention_model;
  /// Lazily trains/loads the Voyager-like LSTM baseline.
  std::function<std::shared_ptr<nn::LstmPredictor>()> lstm_model;
  /// Lazily trains/loads the tabularized DART predictor for a request.
  std::function<DartModel(const DartModelRequest&)> dart_model;
};

/// Constructs a prefetcher from its parsed spec, borrowing trained
/// artifacts from the context. Factories must consume every parameter they
/// honor via the PrefetcherSpec getters (unconsumed keys are rejected).
using PrefetcherFactory =
    std::function<std::unique_ptr<Prefetcher>(PrefetcherSpec&, PrefetcherContext&)>;

/// Process-wide name -> factory map behind every prefetcher the experiment
/// harness can build (DESIGN.md §4). Adding a scenario is one `add()` call
/// (from any linked translation unit) plus a spec string — the evaluation
/// driver never changes. Thread-safe; alias entries expand legacy display
/// names ("DART-S", "TransFetch-I") into parameterized specs.
class PrefetcherRegistry {
 public:
  /// Process-wide registry with the built-in factories pre-installed.
  static PrefetcherRegistry& instance();

  /// Registers `factory` under (case-insensitive) `name`.
  void add(const std::string& name, PrefetcherFactory factory);
  /// Registers `alias` to construct `target` with `implied` parameter
  /// defaults (e.g. "TransFetch-I" -> "transfetch" + ideal=1).
  void add_alias(const std::string& alias, const std::string& target,
                 const std::map<std::string, std::string>& implied = {});

  /// Parses `spec_text`, resolves aliases, runs the factory and rejects
  /// unknown names or unconsumed parameters with common::InputError.
  /// A `label=<name>` parameter is accepted on every spec and overrides the
  /// constructed prefetcher's display name (for parameter sweeps).
  std::unique_ptr<Prefetcher> make(const std::string& spec_text,
                                   PrefetcherContext& context) const;

  /// Throws common::InputError when `spec_text` is malformed, names an
  /// unregistered prefetcher, or carries a parameter its factory refuses
  /// or never reads. Runs the factory on a dry context whose model
  /// providers stop it before any model is trained or loaded, so a
  /// model-backed factory must read every parameter before it asks the
  /// context for a model. A rule-based prefetcher is constructed and
  /// dropped; `dart-artifact` loads its file.
  void validate(const std::string& spec_text) const;

  bool contains(const std::string& name) const;
  /// All registered names and aliases, sorted.
  std::vector<std::string> known_names() const;

 private:
  struct Alias {
    std::string target;
    std::map<std::string, std::string> implied;
  };

  /// Expands an alias's implied parameters into `spec` and returns the
  /// factory its name resolves to; common::InputError on an unknown name.
  PrefetcherFactory resolve(PrefetcherSpec& spec) const;

  mutable std::mutex mu_;
  std::map<std::string, PrefetcherFactory> factories_;
  std::map<std::string, Alias> aliases_;
};

/// Convenience: PrefetcherRegistry::instance().make(spec, context).
std::unique_ptr<Prefetcher> make_prefetcher(const std::string& spec_text,
                                            PrefetcherContext& context);
/// Context-free overload for prefetchers that need no trained artifacts.
std::unique_ptr<Prefetcher> make_prefetcher(const std::string& spec_text);

// Built-in factory packs, installed by instance() on first use. Defined
// next to the prefetchers they wrap (src/prefetch/rule_based.cpp and
// src/core/registry_entries.cpp); the whole project links as one library,
// so the cross-directory definition is resolved at link time.

/// Installs the rule-based pack: nextline, stride, bo, isb (+ aliases).
void register_rule_based_prefetchers(PrefetcherRegistry& registry);
/// Installs the model-backed pack: transfetch, voyager, dart (+ "-I"/"-S"/
/// "-L" aliases) and dart-artifact (serve a `.dart` file, training-free).
void register_model_backed_prefetchers(PrefetcherRegistry& registry);

}  // namespace dart::sim
