// Text in and text out: the one place that decides what counts as a number
// in a value a user typed (a tool flag, a DART_* environment knob, a spec
// parameter) and how an exported CSV or JSON field is escaped.
//
// Every reader of untrusted text parses through parse_uint / parse_double
// and either gets a value or an InputError naming what was malformed; each
// tool's main turns an InputError into exit code 2 (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <exception>
#include <limits>
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

/// Reads a comma-separated environment list; empty when unset.
std::vector<std::string> env_list(const char* name);

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
