#include "common/text.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

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

std::vector<std::string> env_list(const char* name) {
  std::vector<std::string> out;
  const char* v = std::getenv(name);
  if (v == nullptr) return out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
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
