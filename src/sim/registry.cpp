#include "sim/registry.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "common/text.hpp"

namespace dart::sim {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Thrown by validate()'s dry-run model providers to stop a model-backed
/// factory once it has read its parameters.
struct DryRunStop {};

/// Refuses the keys of `spec` that its factory never read.
void reject_unused(const PrefetcherSpec& spec) {
  const std::vector<std::string> unused = spec.unused_keys();
  if (unused.empty()) return;
  std::string keys;
  for (const auto& k : unused) keys += (keys.empty() ? "" : ", ") + k;
  throw common::InputError("prefetcher spec '" + spec.text() + "': unknown parameter(s): " + keys);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
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

/// How a parameter's value error names it, e.g.
/// "prefetcher spec 'bo:degree=x': parameter 'degree'".
std::string param_name(const std::string& text, const std::string& key) {
  return "prefetcher spec '" + text + "': parameter '" + key + "'";
}

}  // namespace

// ------------------------------------------------------------ PrefetcherSpec

PrefetcherSpec PrefetcherSpec::parse(const std::string& text) {
  PrefetcherSpec spec;
  spec.text_ = trim(text);
  const std::size_t colon = spec.text_.find(':');
  spec.name_ = lower(trim(spec.text_.substr(0, colon)));
  if (spec.name_.empty()) {
    throw common::InputError("prefetcher spec '" + text + "' has an empty name");
  }
  if (colon == std::string::npos) return spec;

  std::stringstream params(spec.text_.substr(colon + 1));
  std::string item;
  while (std::getline(params, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      spec.params_[lower(item)] = "1";  // bare flag
      continue;
    }
    const std::string key = lower(trim(item.substr(0, eq)));
    const std::string value = trim(item.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw common::InputError("prefetcher spec '" + text + "': malformed parameter '" +
                               item + "'");
    }
    spec.params_[key] = value;
  }
  return spec;
}

bool PrefetcherSpec::has(const std::string& key) const {
  return params_.count(lower(key)) != 0;
}

std::string PrefetcherSpec::get_string(const std::string& key, const std::string& fallback) {
  const std::string k = lower(key);
  used_.insert(k);
  auto it = params_.find(k);
  return it == params_.end() ? fallback : it->second;
}

std::size_t PrefetcherSpec::get_uint(const std::string& key, std::size_t fallback) {
  const std::string v = get_string(key, "");
  return v.empty() ? fallback : common::parse_uint(param_name(text_, key), v);
}

double PrefetcherSpec::get_double(const std::string& key, double fallback) {
  const std::string v = get_string(key, "");
  return v.empty() ? fallback : common::parse_double(param_name(text_, key), v);
}

bool PrefetcherSpec::get_flag(const std::string& key, bool fallback) {
  const std::string v = lower(get_string(key, ""));
  if (v.empty()) return fallback;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw common::InputError(param_name(text_, key) + " expects a boolean, got '" + v + "'");
}

void PrefetcherSpec::set_default(const std::string& key, const std::string& value) {
  params_.emplace(lower(key), value);
}

std::vector<std::string> PrefetcherSpec::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : params_) {
    if (used_.count(key) == 0) out.push_back(key);
  }
  return out;
}

std::string PrefetcherSpec::canonical() const {
  std::string out = name_;
  char sep = ':';
  for (const auto& [key, value] : params_) {  // std::map: already key-sorted
    out += sep;
    out += key + "=" + value;
    sep = ',';
  }
  return out;
}

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
  factories_[lower(name)] = std::move(factory);
}

void PrefetcherRegistry::add_alias(const std::string& alias, const std::string& target,
                                   const std::map<std::string, std::string>& implied) {
  std::lock_guard lock(mu_);
  aliases_[lower(alias)] = Alias{lower(target), implied};
}

bool PrefetcherRegistry::contains(const std::string& name) const {
  std::lock_guard lock(mu_);
  const std::string n = lower(name);
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
  PrefetcherSpec spec = PrefetcherSpec::parse(spec_text);
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
  reject_unused(spec);
}

std::unique_ptr<Prefetcher> PrefetcherRegistry::make(const std::string& spec_text,
                                                     PrefetcherContext& context) const {
  PrefetcherSpec spec = PrefetcherSpec::parse(spec_text);
  const PrefetcherFactory factory = resolve(spec);
  const std::string label = spec.get_string("label", "");
  std::unique_ptr<Prefetcher> pf = factory(spec, context);
  reject_unused(spec);
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

std::vector<std::string> split_spec_list(const std::string& text) {
  // Commas split only parameter-free legacy name lists; any ';' or ':'
  // means spec grammar, where ';' is the separator.
  const bool legacy_names_only =
      text.find(';') == std::string::npos && text.find(':') == std::string::npos;
  const char delim = legacy_names_only ? ',' : ';';
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, delim)) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace dart::sim
