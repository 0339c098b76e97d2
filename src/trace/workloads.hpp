// YCSB-grade workload engine (DESIGN.md §12).
//
// A `Workload` is a named, deterministic source of memory-access traces: the
// eight Table IV app generators, a parameterized key-distribution family
// mapped onto an address-stream layout, or a ChampSim-style trace file. Every
// workload is described by a spec string in the one spec grammar of
// common::Spec (DESIGN.md §4), with ',' after the family name:
//
//     trace:zipfian,theta=0.99,footprint=64M,layout=hash,seed=42
//     trace:ycsb-b,footprint=1G
//     tracefile:path=traces/gcc.dtrc
//     605.mcf                          (legacy Table IV app names)
//
// Families: zipfian, scrambled, latest, exponential, uniform, sequential
// key streams plus the YCSB A-F op mixes. Key streams are drawn by the
// pinned samplers in common/rng.hpp and mapped onto one of five address
// layouts (hash-table probe, pointer-chase, B-tree scan, graph-walk, or
// direct array), so a "key" becomes the short burst of cache-line accesses a
// real KV/index structure would issue. Everything downstream — sweeps
// (core::ExperimentRunner), `dart_run --simulate`, and the serving load
// generator behind `dart_run --serve` (serve::run_client_load) — consumes
// Workloads, so the same corpus drives all three. All draws route through
// common/rng.hpp + common/detmath.hpp: a (spec, n, seed) triple yields a
// bit-identical trace on every platform and standard library, pinned by
// golden content-hash tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/generators.hpp"
#include "trace/trace.hpp"

namespace dart::trace {

/// A named deterministic trace source. Value type: cheap to copy, carries a
/// shared generator closure. Replaces bare trace::App throughout the
/// pipeline; App converts implicitly so existing call sites keep working.
class Workload {
 public:
  Workload() : Workload(App::kGcc) {}
  /// A Table IV app as a workload (implicit: legacy call sites pass App).
  Workload(App app);  // NOLINT(google-explicit-constructor)

  /// Parses any accepted spec form: a Table IV app name ("605.mcf",
  /// "mcf"), "trace:<family>,k=v,...", "<family>,k=v,...", or
  /// "tracefile:path=...". Throws common::InputError on unknown
  /// families/apps, malformed pairs, out-of-range parameters, or unused
  /// keys. Every spec accepts `label=<name>` to override the display name.
  static Workload parse(const std::string& spec);

  /// All synthetic family names ("zipfian", ..., "ycsb-f"), sorted.
  static std::vector<std::string> known_families();

  /// Display name; filesystem-safe by construction (used in artifact file
  /// names), e.g. "410.bwaves", "zipfian-theta0.99", "ycsb-b".
  const std::string& name() const { return name_; }
  /// Canonical spec string; Workload::parse(spec()) reproduces the
  /// workload. Cache keys serialize this.
  const std::string& spec() const { return spec_; }

  /// Generates `n` accesses deterministically for `seed` (a `seed=` spec
  /// parameter, when present, overrides the argument).
  MemoryTrace generate(std::size_t n, std::uint64_t seed) const;

  /// Internal: assembles a workload from a prebuilt generator closure. Used
  /// by the spec builders; prefer `parse` everywhere else.
  Workload(std::string name, std::string spec,
           std::function<MemoryTrace(std::size_t, std::uint64_t)> gen)
      : name_(std::move(name)), spec_(std::move(spec)), gen_(std::move(gen)) {}

 private:
  std::string name_;
  std::string spec_;
  std::function<MemoryTrace(std::size_t, std::uint64_t)> gen_;
};

/// Workload::parse over each item of common::split_spec_list(text)
/// (DART_WORKLOADS, DART_SERVE_WORKLOADS, CLI args).
std::vector<Workload> parse_workload_list(const std::string& text);

/// 64-bit FNV-1a content hash over the trace's records (little-endian
/// serialized, the trace-file record encoding). The quantity pinned by the
/// golden reproducibility tests and diffed across compilers by the CI
/// corpus-hash job.
std::uint64_t trace_content_hash(const MemoryTrace& trace);

}  // namespace dart::trace
