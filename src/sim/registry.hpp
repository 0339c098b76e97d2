// Extensible prefetcher registry (DESIGN.md §4).
//
// Every prefetcher the experiment harness knows is a named factory keyed by
// a parseable *spec string*:
//
//   spec   := name [":" param ("," param)*]
//   param  := key "=" value | flag
//
// e.g. "stride:table=256,degree=4", "dart:variant=l,threshold=0.6" or
// "transfetch:ideal". Names and keys are case-insensitive; a bare flag is
// shorthand for `flag=1`. Legacy display names ("DART-S", "TransFetch-I")
// are registered as aliases that imply the matching parameters, so every
// spec the old hard-coded driver accepted still works.
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
#include <set>
#include <string>
#include <vector>

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

/// Parsed form of a prefetcher spec string. The grammar:
///
///     spec   := name [":" param ("," param)*]
///     param  := key "=" value | flag        (a bare flag means flag=1)
///
/// e.g. `"bo"`, `"stride:table=256,degree=4"`, `"transfetch:ideal"`,
/// `"dart:variant=l,threshold=0.6"`, `"dart-artifact:file=m.dart"`. Names
/// and keys are case-insensitive; every spec additionally accepts
/// `label=<name>` to override the display name. Parameter getters record
/// which keys were consumed so the registry can reject typos
/// (`unused_keys`).
class PrefetcherSpec {
 public:
  /// Parses `text`; throws common::InputError on an empty name or a
  /// malformed `key=value` pair.
  static PrefetcherSpec parse(const std::string& text);

  /// The (lowercased) prefetcher name the spec opens with.
  const std::string& name() const { return name_; }
  /// The original spec text as supplied by the user.
  const std::string& text() const { return text_; }

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key, const std::string& fallback);
  /// Throws common::InputError naming the spec and key unless the value is
  /// a whole unsigned decimal integer (common::parse_uint).
  std::size_t get_uint(const std::string& key, std::size_t fallback);
  /// Throws common::InputError naming the spec and key unless the value is
  /// a finite unsigned number (common::parse_double).
  double get_double(const std::string& key, double fallback);
  /// Bare flags ("transfetch:ideal") and 1/true/yes/on are true.
  bool get_flag(const std::string& key, bool fallback = false);

  /// Installs a parameter unless the user already set it (alias expansion).
  void set_default(const std::string& key, const std::string& value);
  /// Keys present in the spec that no getter ever consumed.
  std::vector<std::string> unused_keys() const;

  /// Canonical "name:k=v,..." form (keys sorted); parsing it yields an
  /// equal spec, making specs round-trippable through CSV/JSON exports.
  std::string canonical() const;

 private:
  std::string text_;
  std::string name_;
  std::map<std::string, std::string> params_;
  std::set<std::string> used_;
};

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

/// Splits a user-facing spec list (DART_PREFETCHERS, CLI args): semicolons
/// always separate; commas also separate when no spec in the list carries
/// parameters (legacy "BO,ISB,DART" lists keep working).
std::vector<std::string> split_spec_list(const std::string& text);

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
