#include "sim/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/text.hpp"

namespace dart::sim {

namespace {

/// Thrown by validate()'s dry-run model providers to stop a model-backed
/// factory once it has read its parameters.
struct DryRunStop {};

PrefetcherSpec parse_spec(const std::string& text) {
  return common::Spec::parse(text, ':', "prefetcher spec");
}

/// Display-name decorator: forwards everything to the wrapped prefetcher
/// but reports a caller-chosen name (the spec's `label=` parameter), so
/// parameter sweeps over one prefetcher type stay distinguishable.
class RelabeledPrefetcher final : public Prefetcher {
 public:
  RelabeledPrefetcher(std::unique_ptr<Prefetcher> inner, std::string label)
      : inner_(std::move(inner)), label_(std::move(label)) {}

  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) override {
    inner_->on_access(block, pc, hit, cycle, out);
  }
  void on_fill(std::uint64_t block, bool was_prefetch) override {
    inner_->on_fill(block, was_prefetch);
  }
  bool trains_on_fill() const override { return inner_->trains_on_fill(); }
  std::size_t prediction_latency() const override { return inner_->prediction_latency(); }
  std::size_t storage_bytes() const override { return inner_->storage_bytes(); }
  bool shares_mutable_model() const override { return inner_->shares_mutable_model(); }
  std::string name() const override { return label_; }

 private:
  std::unique_ptr<Prefetcher> inner_;
  std::string label_;
};

}  // namespace

// -------------------------------------------------------- PrefetcherRegistry

PrefetcherRegistry& PrefetcherRegistry::instance() {
  static PrefetcherRegistry* registry = [] {
    auto* r = new PrefetcherRegistry();
    register_rule_based_prefetchers(*r);
    register_model_backed_prefetchers(*r);
    return r;
  }();
  return *registry;
}

void PrefetcherRegistry::add(const std::string& name, PrefetcherFactory factory) {
  std::lock_guard lock(mu_);
  factories_[common::lower(name)] = std::move(factory);
}

void PrefetcherRegistry::add_alias(const std::string& alias, const std::string& target,
                                   const std::map<std::string, std::string>& implied) {
  std::lock_guard lock(mu_);
  aliases_[common::lower(alias)] = Alias{common::lower(target), implied};
}

bool PrefetcherRegistry::contains(const std::string& name) const {
  std::lock_guard lock(mu_);
  const std::string n = common::lower(name);
  return factories_.count(n) != 0 || aliases_.count(n) != 0;
}

std::vector<std::string> PrefetcherRegistry::known_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, factory] : factories_) names.push_back(name);
  for (const auto& [name, alias] : aliases_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

PrefetcherFactory PrefetcherRegistry::resolve(PrefetcherSpec& spec) const {
  std::string name = spec.name();
  {
    std::lock_guard lock(mu_);
    auto alias = aliases_.find(name);
    if (alias != aliases_.end()) {
      for (const auto& [key, value] : alias->second.implied) spec.set_default(key, value);
      name = alias->second.target;
    }
    auto it = factories_.find(name);
    if (it != factories_.end()) return it->second;
    if (alias != aliases_.end()) {
      throw std::invalid_argument("prefetcher alias '" + spec.name() +
                                  "' targets unregistered '" + name + "'");
    }
  }
  std::string known;
  for (const auto& n : known_names()) known += (known.empty() ? "" : ", ") + n;
  // A comma inside the name means a ','-separated list of specs where at
  // least one carries parameters — only ';' can separate those.
  const std::string hint = spec.name().find(',') != std::string::npos
                               ? " (separate multiple parameterized specs with ';')"
                               : "";
  throw common::InputError("unknown prefetcher '" + spec.name() + "' in spec '" + spec.text() +
                           "'" + hint + "; known: " + known);
}

void PrefetcherRegistry::validate(const std::string& spec_text) const {
  PrefetcherSpec spec = parse_spec(spec_text);
  const PrefetcherFactory factory = resolve(spec);
  spec.get_string("label", "");
  PrefetcherContext dry;
  dry.attention_model = []() -> std::shared_ptr<nn::AddressPredictor> { throw DryRunStop{}; };
  dry.lstm_model = []() -> std::shared_ptr<nn::LstmPredictor> { throw DryRunStop{}; };
  dry.dart_model = [](const DartModelRequest&) -> DartModel { throw DryRunStop{}; };
  try {
    factory(spec, dry);
  } catch (const DryRunStop&) {
    // The factory read its parameters and asked for a model: spec is valid.
  }
  spec.reject_unused();
}

std::unique_ptr<Prefetcher> PrefetcherRegistry::make(const std::string& spec_text,
                                                     PrefetcherContext& context) const {
  PrefetcherSpec spec = parse_spec(spec_text);
  const PrefetcherFactory factory = resolve(spec);
  const std::string label = spec.get_string("label", "");
  std::unique_ptr<Prefetcher> pf = factory(spec, context);
  spec.reject_unused();
  if (!label.empty()) pf = std::make_unique<RelabeledPrefetcher>(std::move(pf), label);
  return pf;
}

std::unique_ptr<Prefetcher> make_prefetcher(const std::string& spec_text,
                                            PrefetcherContext& context) {
  return PrefetcherRegistry::instance().make(spec_text, context);
}

std::unique_ptr<Prefetcher> make_prefetcher(const std::string& spec_text) {
  PrefetcherContext context;
  return PrefetcherRegistry::instance().make(spec_text, context);
}

}  // namespace dart::sim
