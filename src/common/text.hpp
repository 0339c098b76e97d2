// Text in and text out: the one place that decides what counts as a number
// in a value a user typed (a tool flag, a DART_* environment knob, a spec
// parameter), how a spec string is parsed (common::Spec) and how an
// exported CSV or JSON field is escaped.
//
// Every reader of untrusted text parses through parse_uint / parse_double
// and either gets a value or an InputError naming what was malformed; each
// tool's main turns an InputError into exit code 2 (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dart::common {

/// A malformed or out-of-range value a user typed: a flag, an environment
/// knob or a spec string. The message names the offending input. Derives
/// from std::invalid_argument so callers that catch that still see it.
struct InputError : std::invalid_argument {
  /// Takes the message, as std::invalid_argument does.
  using std::invalid_argument::invalid_argument;
};

/// Parses `text` as a whole unsigned decimal token: digits only, no sign,
/// no whitespace, no trailing character. Throws InputError naming `name`
/// when the token is malformed, overflows 64 bits or exceeds `max`.
std::uint64_t parse_uint(const std::string& name, const std::string& text,
                         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Throws InputError "<name>: <value> exceeds <max>" when `value` > `max`:
/// the bound check of parse_uint, for a value that is already a number.
void check_at_most(const std::string& name, std::uint64_t value, std::uint64_t max);

/// Parses `text` as a whole unsigned decimal number ("0.5", "2", "1e-3"):
/// no sign, no whitespace, no trailing character, finite. Throws InputError
/// naming `name` otherwise.
double parse_double(const std::string& name, const std::string& text);

/// `s` without leading and trailing whitespace (std::isspace).
std::string trim(const std::string& s);

/// `s` in ASCII lower case.
std::string lower(std::string s);

/// One parsed spec string: a prefetcher spec ("bo:degree=4"), a workload
/// spec ("zipfian,theta=0.9" once "trace:" is stripped, or
/// "tracefile:path=t.dtrc") or a DART_FAULT clause ("slow-cell:ms=5"). The
/// one parser of the grammar of DESIGN.md §4:
///
///     spec   := name [head_sep item ("," item)*]
///     item   := key "=" value | key          (a bare key is a flag)
///
/// Names and keys are case-insensitive; values keep their case. An empty
/// name, key or value and a repeated key are refused at parse time; empty
/// items are skipped. Only get_flag accepts a bare key. Getters record the
/// keys they read, so reject_unused() refuses a key nothing read (a typo).
class Spec {
 public:
  /// Parses `text`: the name runs up to the first `head_sep` (':' or ','),
  /// then ','-separated items follow. `what` names the grammar in every
  /// error ("prefetcher spec", "workload spec", "DART_FAULT"). Throws
  /// InputError naming `what`, the text and the key on a malformed item.
  static Spec parse(const std::string& text, char head_sep, const std::string& what);

  /// The lowercased name the spec opens with.
  const std::string& name() const { return name_; }
  /// The spec text as given, trimmed.
  const std::string& text() const { return text_; }

  /// True when the spec carries `key`, valued or bare.
  bool has(const std::string& key) const;
  /// The value of `key`, or `fallback` when absent. This and the other
  /// valued getters throw InputError on a bare key.
  std::string get_string(const std::string& key, const std::string& fallback);
  /// A whole unsigned decimal integer at most `max` (common::parse_uint).
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback,
                         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
  /// get_uint with an optional K/M/G suffix ("64M" = 64 * 2^20); a size
  /// past 64 bits is refused.
  std::uint64_t get_size(const std::string& key, std::uint64_t fallback);
  /// A finite unsigned number (common::parse_double).
  double get_double(const std::string& key, double fallback);
  /// A bare key and 1/true/yes/on are true; 0/false/no/off are false.
  bool get_flag(const std::string& key, bool fallback = false);

  /// Sets `key` unless the spec already carries it (alias expansion).
  void set_default(const std::string& key, const std::string& value);
  /// Keys the spec carries that no getter read.
  std::vector<std::string> unused_keys() const;
  /// Throws InputError naming every key in unused_keys().
  void reject_unused() const;
  /// Throws InputError "<what> '<text>': <why>".
  [[noreturn]] void fail(const std::string& why) const;

  /// "name<head_sep>k=v,..." with keys sorted and a bare key written k=1;
  /// parsing it gives an equal spec. Cache keys and exports carry it.
  std::string canonical() const;

 private:
  /// The value a valued getter reads: empty when absent. Marks `key` read.
  std::string value(const std::string& key);
  /// "<what> '<text>': parameter '<key>'", how a bad value is named.
  std::string param_name(const std::string& key) const;

  std::string what_;
  std::string text_;
  std::string name_;
  char head_sep_ = ':';
  std::map<std::string, std::string> params_;  ///< a bare key maps to ""
  std::set<std::string> used_;
};

/// Splits a spec list (DART_PREFETCHERS, DART_WORKLOADS, DART_FAULT, a CLI
/// argument) into trimmed, non-empty items: ';' always separates, and ','
/// separates only when the text holds no ':', '=' or ';' (a name list such
/// as "BO,ISB" or "mcf,gcc").
std::vector<std::string> split_spec_list(const std::string& text);

/// The value of the flag at `argv[i]`: advances `i` and returns `argv[i]`.
/// Throws InputError "<flag> needs a value" when the flag is the last one.
const char* flag_value(int argc, char** argv, int& i);

/// Reads the environment variable `name` with parse_uint; `fallback` when
/// unset or empty. A malformed value throws InputError, never falls back.
std::uint64_t env_uint(const char* name, std::uint64_t fallback,
                       std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Reads the environment variable `name` with parse_double; `fallback`
/// when unset or empty. A malformed value throws InputError.
double env_double(const char* name, double fallback);

/// Reads a string environment variable, returning `fallback` when unset or
/// empty.
std::string env_string(const char* name, const std::string& fallback);

/// Every DART_* environment knob the code reads, sorted. README.md's knob
/// table gives each one's default and the binaries that honor it; a knob
/// added to the code is added here too.
inline constexpr std::string_view kKnobs[] = {
    "DART_APPS", "DART_ARTIFACT_DIR", "DART_BENCH_QUERIES", "DART_EPOCHS",
    "DART_FAULT", "DART_FULL_SWEEP", "DART_PAPER_SCALE", "DART_PREFETCHERS",
    "DART_SERVE_BATCH", "DART_SERVE_DEADLINE_US", "DART_SERVE_PIN",
    "DART_SERVE_QUEUE", "DART_SERVE_RATE", "DART_SERVE_REQUESTS",
    "DART_SERVE_SHARDS", "DART_SERVE_STREAMS", "DART_SERVE_WATCHDOG_MS",
    "DART_SERVE_WATERMARK_HI", "DART_SERVE_WATERMARK_LO", "DART_SERVE_WORKLOADS",
    "DART_SIM_INSTR",
    "DART_SWEEP_BACKOFF_MS", "DART_SWEEP_DIR", "DART_SWEEP_RETRIES",
    "DART_SWEEP_TIMEOUT_MS",
    "DART_THREADS", "DART_TRAIN_SAMPLES", "DART_WORKLOADS",
};

/// The names of the DART_* variables in `env` that are not in kKnobs, in
/// the order found. `env` is a null-terminated array of "NAME=value"
/// entries, as `environ` is.
std::vector<std::string> unknown_knobs(const char* const* env);

/// Prints one warning line on stderr naming every DART_* variable of this
/// process's environment that is not a knob, which the code would silently
/// ignore (a removed or misspelt knob). Each tool's main calls it first.
void warn_unknown_knobs();

/// RFC 4180 CSV field: a field holding a comma, a quote or a line break is
/// quoted, with embedded quotes doubled; any other field is returned as is.
std::string csv_quote(const std::string& field);

/// JSON string body: quotes and backslashes are escaped, and so is every
/// control character below 0x20, which JSON forbids raw inside a string.
std::string json_escape(const std::string& s);

/// Prints "error: <what>" to stderr and returns the tool exit code for `e`:
/// 2 for an InputError (bad flag, knob or spec), 1 for anything else.
int report_error(const std::exception& e);

}  // namespace dart::common
