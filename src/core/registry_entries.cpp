// Model-backed prefetcher registry entries (DESIGN.md §4): the NN baselines
// (TransFetch-like attention, Voyager-like LSTM, plus their zero-latency
// "-I" ideals) and the DART tabular variants. All trained artifacts come
// from the PrefetcherContext, so these factories work under any harness
// that can lend models — ExperimentRunner, tests, or custom drivers. Each
// factory reads every parameter before it asks the context for a model:
// PrefetcherRegistry::validate's dry run stops it there.
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/text.hpp"
#include "core/configs.hpp"
#include "io/artifact.hpp"
#include "prefetch/nn_prefetchers.hpp"
#include "sim/registry.hpp"

namespace dart::sim {

namespace {

/// Shared adapter knobs every model-backed spec accepts: threshold=, degree=
/// and sample= (trigger sampling; NN baselines default to the context's
/// simulation-cost sampling, DART is cheap enough to trigger every access).
prefetch::NnAdapterOptions adapter_options(PrefetcherSpec& spec, PrefetcherContext& context,
                                           std::size_t default_sample) {
  prefetch::NnAdapterOptions o;
  o.prep = context.prep;
  o.degree = spec.get_uint("degree", context.degree);
  o.threshold = static_cast<float>(spec.get_double("threshold", o.threshold));
  o.trigger_sample = spec.get_uint("sample", default_sample);
  o.initiation_interval = spec.get_uint("ii", o.initiation_interval);
  return o;
}

void require(bool present, const PrefetcherSpec& spec, const char* provider) {
  if (!present) {
    throw std::runtime_error("prefetcher spec '" + spec.text() + "' needs a trained model: " +
                             "PrefetcherContext::" + provider + " is not set");
  }
}

/// `latency=` when the spec sets it. Read with the other parameters, before
/// the model whose latency is the default exists.
std::optional<std::size_t> latency_param(PrefetcherSpec& spec) {
  if (!spec.has("latency")) return std::nullopt;
  return spec.get_uint("latency", 0);
}

}  // namespace

void register_model_backed_prefetchers(PrefetcherRegistry& registry) {
  registry.add("transfetch", [](PrefetcherSpec& spec, PrefetcherContext& context) {
    require(static_cast<bool>(context.attention_model), spec, "attention_model");
    const bool ideal = spec.get_flag("ideal");
    prefetch::NnAdapterOptions o = adapter_options(spec, context, context.nn_trigger_sample);
    o.latency = ideal ? 0 : spec.get_uint("latency", core::kTransFetchLatencyCycles);
    return std::make_unique<prefetch::AttentionPrefetcher>(
        context.attention_model(), o, ideal ? "TransFetch-I" : "TransFetch");
  });
  registry.add_alias("transfetch-i", "transfetch", {{"ideal", "1"}});

  registry.add("voyager", [](PrefetcherSpec& spec, PrefetcherContext& context) {
    require(static_cast<bool>(context.lstm_model), spec, "lstm_model");
    const bool ideal = spec.get_flag("ideal");
    prefetch::NnAdapterOptions o = adapter_options(spec, context, context.nn_trigger_sample);
    o.latency = ideal ? 0 : spec.get_uint("latency", core::kVoyagerLatencyCycles);
    return std::make_unique<prefetch::LstmPrefetcher>(context.lstm_model(), o,
                                                      ideal ? "Voyager-I" : "Voyager");
  });
  registry.add_alias("voyager-i", "voyager", {{"ideal", "1"}});

  registry.add("dart", [](PrefetcherSpec& spec, PrefetcherContext& context) {
    require(static_cast<bool>(context.dart_model), spec, "dart_model");
    DartModelRequest request;
    request.variant = spec.get_string("variant", "default");
    request.table_k = spec.get_uint("tables", 0);
    request.table_c = spec.get_uint("codebooks", 0);
    prefetch::NnAdapterOptions o = adapter_options(spec, context, /*default_sample=*/1);
    const std::optional<std::size_t> latency = latency_param(spec);
    const DartModel model = context.dart_model(request);
    o.latency = latency.value_or(model.latency_cycles);
    return std::make_unique<prefetch::DartPrefetcher>(model.predictor, o, model.display_name);
  });
  registry.add_alias("dart-s", "dart", {{"variant", "s"}});
  registry.add_alias("dart-l", "dart", {{"variant", "l"}});

  // Serving-process entry: a DART prefetcher cold-started from a versioned
  // `.dart` artifact (tools/dart_train output) — no trained pipeline, no
  // context providers, no training dependency. The artifact's embedded
  // preprocessing geometry overrides the context's, since inference inputs
  // must be built exactly as the model was trained.
  registry.add("dart-artifact", [](PrefetcherSpec& spec, PrefetcherContext& context) {
    const std::string file = spec.get_string("file", "");
    if (file.empty()) spec.fail("needs file=<path to .dart artifact>");
    prefetch::NnAdapterOptions o = adapter_options(spec, context, /*default_sample=*/1);
    const std::optional<std::size_t> latency = latency_param(spec);
    io::ArtifactInfo info;
    auto predictor = std::make_shared<const tabular::TabularPredictor>(
        io::load_predictor_artifact(file, &info));
    o.prep = info.meta.prep;
    o.latency = latency.value_or(static_cast<std::size_t>(info.meta.latency_cycles));
    const std::string name =
        info.meta.display_name.empty() ? "DART(artifact)" : info.meta.display_name;
    return std::make_unique<prefetch::DartPrefetcher>(std::move(predictor), o, name);
  });
}

}  // namespace dart::sim
