// dart_trace — generate, inspect and fingerprint workload traces
// (DESIGN.md §12): the operator-facing front end of the deterministic
// workload engine and the tool the CI corpus-hash job runs on two
// compilers to prove bit-reproducibility.
//
//   dart_trace --spec SPEC [--n N] [--seed S] [--out FILE.dtrc]
//              [--hash] [--stats]
//   dart_trace --corpus [--n N] [--seed S]
//   dart_trace --validate-spec SPEC
//   dart_trace --list
//
// Modes:
//   --spec SPEC      generate N accesses of the workload ("605.mcf",
//                    "trace:zipfian,theta=0.99,footprint=64M", "ycsb-b",
//                    "tracefile:path=..."); combine with --out / --hash /
//                    --stats (default --hash when neither is given).
//   --out FILE       write the generated trace as a .dtrc trace file.
//   --hash           print "<spec>\t<n>\t<seed>\t<hash>" — the 64-bit
//                    FNV-1a content hash over the record encoding. The
//                    exact line format the golden corpus file pins.
//   --stats          print access counts, write fraction, unique lines and
//                    footprint.
//   --corpus         emit one --hash line per canonical corpus workload
//                    (the full synthetic family grid). CI runs this under
//                    gcc/libstdc++ AND clang/libc++ and diffs the output
//                    against tests/golden/corpus_hashes.tsv.
//   --validate-spec  parse the spec and exit: 0 valid (prints the
//                    canonical form), 1 invalid (prints the parse error).
//                    The CI negative check asserts malformed specs fail.
//   --list           print the known synthetic family names.
//
// N and S are whole unsigned decimal tokens. Exit codes: 0 = done, 2 = bad
// flag or spec (refused by name), 1 = any other failure.
#include <cstdio>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/text.hpp"
#include "trace/trace.hpp"
#include "trace/trace_file.hpp"
#include "trace/workloads.hpp"

using namespace dart;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --spec SPEC [--n N] [--seed S] [--out FILE.dtrc] [--hash] "
               "[--stats]\n"
               "       %s --corpus [--n N] [--seed S]\n"
               "       %s --validate-spec SPEC\n"
               "       %s --list\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

/// The canonical reproducibility corpus: every synthetic family at its
/// documented default parameters plus the parameter variations the golden
/// tests pin. Fixed specs — extending the corpus means appending here AND
/// regenerating tests/golden/corpus_hashes.tsv.
std::vector<std::string> corpus_specs() {
  return {
      "trace:zipfian,footprint=64M,theta=0.99",
      "trace:zipfian,footprint=64M,theta=0.8",
      "trace:zipfian,footprint=256M,theta=0.99,layout=hash",
      "trace:scrambled-zipfian,footprint=64M,theta=0.99",
      "trace:scrambled-zipfian,footprint=64M,theta=0.99,layout=chase",
      "trace:latest,footprint=64M,theta=0.99",
      "trace:exponential,footprint=64M",
      "trace:uniform,footprint=64M",
      "trace:uniform,footprint=64M,write=0.2",
      "trace:sequential,footprint=64M,stride=4",
      "trace:ycsb-a,footprint=64M",
      "trace:ycsb-b,footprint=64M",
      "trace:ycsb-c,footprint=64M",
      "trace:ycsb-d,footprint=64M",
      "trace:ycsb-e,footprint=64M,scan=16",
      "trace:ycsb-f,footprint=64M",
      "trace:ycsb-b,footprint=64M,layout=btree",
      "trace:ycsb-c,footprint=64M,layout=graph",
  };
}

void print_hash_line(const std::string& spec, std::size_t n, std::uint64_t seed,
                     std::uint64_t hash) {
  std::printf("%s\t%zu\t%llu\t%016llx\n", spec.c_str(), n,
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(hash));
}

void print_stats(const trace::MemoryTrace& t) {
  std::uint64_t writes = 0;
  std::set<std::uint64_t> lines, pcs;
  std::uint64_t lo = ~0ULL, hi = 0;
  for (const trace::MemoryAccess& a : t) {
    if (a.is_write) ++writes;
    lines.insert(a.addr >> 6);
    pcs.insert(a.pc);
    if (a.addr < lo) lo = a.addr;
    if (a.addr > hi) hi = a.addr;
  }
  std::printf("accesses   : %zu (%llu writes, %.1f%%)\n", t.size(),
              static_cast<unsigned long long>(writes),
              t.empty() ? 0.0 : 100.0 * static_cast<double>(writes) / t.size());
  std::printf("unique     : %zu cache lines, %zu pcs\n", lines.size(), pcs.size());
  std::printf("addr span  : [%#llx, %#llx]\n", static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
  if (!t.empty()) {
    std::printf("instr span : %llu\n",
                static_cast<unsigned long long>(t.back().instr_id - t.front().instr_id));
  }
}

}  // namespace

int main(int argc, char** argv) try {
  std::string spec_text, out_path, validate_text;
  std::size_t n = 100000;
  std::uint64_t seed = 42;
  bool hash_mode = false, stats_mode = false, corpus_mode = false, list_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&] { return common::flag_value(argc, argv, i); };
    if (arg == "--spec") {
      spec_text = value();
    } else if (arg == "--n") {
      n = common::parse_uint(arg, value());
    } else if (arg == "--seed") {
      seed = common::parse_uint(arg, value());
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--hash") {
      hash_mode = true;
    } else if (arg == "--stats") {
      stats_mode = true;
    } else if (arg == "--corpus") {
      corpus_mode = true;
    } else if (arg == "--validate-spec") {
      validate_text = value();
    } else if (arg == "--list") {
      list_mode = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (list_mode) {
    for (const std::string& f : trace::Workload::known_families()) {
      std::printf("%s\n", f.c_str());
    }
    return 0;
  }
  if (!validate_text.empty()) {
    try {
      const trace::Workload w = trace::Workload::parse(validate_text);
      std::printf("valid: %s (name %s)\n", w.spec().c_str(), w.name().c_str());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "invalid: %s\n", e.what());
      return 1;
    }
  }
  if (corpus_mode) {
    for (const std::string& spec : corpus_specs()) {
      const trace::Workload w = trace::Workload::parse(spec);
      const trace::MemoryTrace t = w.generate(n, seed);
      print_hash_line(w.spec(), n, seed, trace::trace_content_hash(t));
    }
    return 0;
  }
  if (spec_text.empty()) return usage(argv[0]);

  const trace::Workload workload = trace::Workload::parse(spec_text);
  const trace::MemoryTrace t = workload.generate(n, seed);
  if (!hash_mode && !stats_mode && out_path.empty()) hash_mode = true;
  if (!out_path.empty()) {
    trace::write_trace_file(out_path, t);
    std::printf("wrote      : %s (%zu records, %zu bytes)\n", out_path.c_str(), t.size(),
                trace::kTraceFileHeaderBytes + t.size() * trace::kTraceFileRecordBytes + 8);
  }
  if (hash_mode) print_hash_line(workload.spec(), n, seed, trace::trace_content_hash(t));
  if (stats_mode) print_stats(t);
  return 0;
} catch (const std::exception& e) {
  return common::report_error(e);
}
