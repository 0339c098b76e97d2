#include "common/text.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>

extern char** environ;  // POSIX: the process environment

namespace dart::common {

std::uint64_t parse_uint(const std::string& name, const std::string& text, std::uint64_t max) {
  // from_chars into an unsigned type takes digits only: no sign, no
  // whitespace, no base prefix.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::invalid_argument || ptr != end) {
    throw InputError(name + ": expected an unsigned integer, got '" + text + "'");
  }
  if (ec == std::errc::result_out_of_range) {
    throw InputError(name + ": " + text + " exceeds " + std::to_string(max));
  }
  check_at_most(name, v, max);
  return v;
}

void check_at_most(const std::string& name, std::uint64_t value, std::uint64_t max) {
  if (value > max) {
    throw InputError(name + ": " + std::to_string(value) + " exceeds " + std::to_string(max));
  }
}

double parse_double(const std::string& name, const std::string& text) {
  // strtod would also take a sign, leading whitespace, "nan" and "inf".
  if (!text.empty() && (std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '.')) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != ERANGE && *end == '\0' && std::isfinite(v)) return v;
  }
  throw InputError(name + ": expected a finite unsigned number, got '" + text + "'");
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// ---------------------------------------------------------------------- Spec

Spec Spec::parse(const std::string& text, char head_sep, const std::string& what) {
  Spec spec;
  spec.what_ = what;
  spec.text_ = trim(text);
  spec.head_sep_ = head_sep;
  std::size_t p = spec.text_.find(head_sep);
  spec.name_ = lower(trim(spec.text_.substr(0, p)));
  if (spec.name_.empty()) spec.fail("empty name");
  while (p < spec.text_.size()) {
    const std::size_t q = std::min(spec.text_.find(',', p + 1), spec.text_.size());
    const std::string item = trim(spec.text_.substr(p + 1, q - p - 1));
    p = q;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    const std::string key = lower(trim(item.substr(0, eq)));
    const std::string value = eq == std::string::npos ? "" : trim(item.substr(eq + 1));
    if (key.empty()) spec.fail("parameter '" + item + "' has an empty key");
    if (eq != std::string::npos && value.empty()) {
      spec.fail("parameter '" + key + "' has an empty value");
    }
    if (!spec.params_.emplace(key, value).second) spec.fail("parameter '" + key + "' is repeated");
  }
  return spec;
}

bool Spec::has(const std::string& key) const { return params_.count(lower(key)) != 0; }

std::string Spec::value(const std::string& key) {
  const std::string k = lower(key);
  used_.insert(k);
  const auto it = params_.find(k);
  if (it == params_.end()) return "";
  if (it->second.empty()) throw InputError(param_name(k) + " needs a value (key=value)");
  return it->second;
}

std::string Spec::param_name(const std::string& key) const {
  return what_ + " '" + text_ + "': parameter '" + key + "'";
}

std::string Spec::get_string(const std::string& key, const std::string& fallback) {
  const std::string v = value(key);
  return v.empty() ? fallback : v;
}

std::uint64_t Spec::get_uint(const std::string& key, std::uint64_t fallback, std::uint64_t max) {
  const std::string v = value(key);
  return v.empty() ? fallback : parse_uint(param_name(key), v, max);
}

std::uint64_t Spec::get_size(const std::string& key, std::uint64_t fallback) {
  const std::string v = value(key);
  if (v.empty()) return fallback;
  const std::size_t suffix = std::string("kmg").find(lower(v.substr(v.size() - 1)));
  const unsigned shift = suffix == std::string::npos ? 0 : 10 * (suffix + 1);
  const std::string digits = shift == 0 ? v : v.substr(0, v.size() - 1);
  // The digits' max keeps the scaled size inside 64 bits.
  return parse_uint(param_name(key), digits, ~std::uint64_t{0} >> shift) << shift;
}

double Spec::get_double(const std::string& key, double fallback) {
  const std::string v = value(key);
  return v.empty() ? fallback : parse_double(param_name(key), v);
}

bool Spec::get_flag(const std::string& key, bool fallback) {
  const std::string k = lower(key);
  used_.insert(k);
  const auto it = params_.find(k);
  if (it == params_.end()) return fallback;
  const std::string v = lower(it->second);
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw InputError(param_name(k) + " expects a boolean, got '" + it->second + "'");
}

void Spec::set_default(const std::string& key, const std::string& value) {
  params_.emplace(lower(key), value);
}

std::vector<std::string> Spec::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : params_) {
    if (used_.count(key) == 0) out.push_back(key);
  }
  return out;
}

void Spec::reject_unused() const {
  std::string keys;
  for (const std::string& key : unused_keys()) keys += (keys.empty() ? "'" : ", '") + key + "'";
  if (!keys.empty()) fail("unknown parameter(s) " + keys);
}

void Spec::fail(const std::string& why) const {
  throw InputError(what_ + " '" + text_ + "': " + why);
}

std::string Spec::canonical() const {
  std::string out = name_;
  char sep = head_sep_;
  for (const auto& [key, value] : params_) {  // std::map: already key-sorted
    out += sep;
    out += key + "=" + (value.empty() ? "1" : value);
    sep = ',';
  }
  return out;
}

std::vector<std::string> split_spec_list(const std::string& text) {
  const char sep = text.find_first_of(":=;") == std::string::npos ? ',' : ';';
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, sep)) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) throw InputError(std::string(argv[i]) + " needs a value");
  return argv[++i];
}

std::uint64_t env_uint(const char* name, std::uint64_t fallback, std::uint64_t max) {
  const std::string v = env_string(name, "");
  return v.empty() ? fallback : parse_uint(name, v, max);
}

double env_double(const char* name, double fallback) {
  const std::string v = env_string(name, "");
  return v.empty() ? fallback : parse_double(name, v);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

std::vector<std::string> unknown_knobs(const char* const* env) {
  std::vector<std::string> out;
  for (; env != nullptr && *env != nullptr; ++env) {
    const std::string_view entry(*env);
    if (entry.rfind("DART_", 0) != 0) continue;
    const std::string_view name = entry.substr(0, entry.find('='));
    if (!std::binary_search(std::begin(kKnobs), std::end(kKnobs), name)) out.emplace_back(name);
  }
  return out;
}

void warn_unknown_knobs() {
  const std::vector<std::string> names = unknown_knobs(environ);
  if (names.empty()) return;
  std::string list;
  for (const std::string& name : names) list += (list.empty() ? "" : ", ") + name;
  std::fprintf(stderr, "warning: no such DART_* knob, ignored: %s (README.md lists the knobs)\n",
               list.c_str());
}

std::string csv_quote(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[7];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

int report_error(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return dynamic_cast<const InputError*>(&e) != nullptr ? 2 : 1;
}

}  // namespace dart::common
