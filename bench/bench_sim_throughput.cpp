// Trace-replay simulator throughput (the second axis of the perf
// trajectory, next to bench_batch_inference): accesses/sec through
// sim::Simulator::run on the Table IX sweep configuration — every app of
// Table IV replayed against the rule-based prefetcher set (baseline, stride,
// BO, ISB), plus one zipfian and one YCSB-B synthetic-workload series from
// the deterministic workload engine (trace/workloads.hpp). Every
// ExperimentRunner cell pays exactly this loop, so sweep wall-clock scales
// with this number.
//
// Output: the usual table + CSV mirror, plus a JSON snapshot:
//
//   {"accesses_per_config": N, "apps": A, "sim_instr": I,
//    "configs": [{"prefetcher": "baseline", "accesses_per_sec": S,
//                 "counters": {"instructions": ..., "cycles": ...,
//                              "llc_accesses": ..., ...}}, ...]}
//
// The `counters` objects are deterministic (trace generation and the
// simulator are seeded and allocation order does not affect results), so CI
// diffs them against the committed repo-root bench_sim_throughput.json to
// catch semantic regressions; the *_per_sec fields are host-dependent and
// ignored by the diff (tools/diff_sim_counters.py).
//
// Synthetic series are named "zipfian/<prefetcher>" and
// "ycsb-b/<prefetcher>" in the table and JSON; their counters are pinned
// by the same CI diff, so the workload engine's streams are regression-
// checked here end to end (generator -> simulator).
//
// Knobs: DART_SIM_INSTR (accesses per app trace, default 400000),
// DART_APPS, DART_BENCH_REPS (best-of-R, default 3), --json <path>.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/registry.hpp"
#include "trace/workloads.hpp"
#include "sim/simulator.hpp"

using namespace dart;

namespace {

struct ConfigResult {
  std::string name;
  double accesses_per_sec = 0.0;
  sim::SimStats totals;  ///< counters summed over all apps (deterministic)
};

void accumulate(sim::SimStats& into, const sim::SimStats& s) {
  into.instructions += s.instructions;
  into.cycles += s.cycles;
  into.llc_accesses += s.llc_accesses;
  into.llc_hits += s.llc_hits;
  into.llc_demand_misses += s.llc_demand_misses;
  into.pf_issued += s.pf_issued;
  into.pf_useful += s.pf_useful;
  into.pf_late += s.pf_late;
  into.pf_dropped += s.pf_dropped;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "bench_sim_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const std::size_t n = common::env_uint("DART_SIM_INSTR", 400000);
  const int reps = static_cast<int>(common::env_uint("DART_BENCH_REPS", 3));
  const std::vector<trace::App> apps = bench::bench_apps();
  const sim::SimConfig cfg;  // Table III parameters (the table9 sweep config)

  // Rule-based Table IX prefetchers only: cell cost is then pure replay, not
  // model training/inference, which is what this bench tracks.
  const char* specs[] = {"baseline", "stride", "bo", "isb"};

  // Trace series: the Table IV app pool (summed, as before), plus one
  // zipfian and one YCSB-B synthetic workload from the workload engine.
  // All traces are generated outside the timer, with a fixed seed so the
  // counters in the JSON are reproducible on any host.
  struct Series {
    std::string prefix;  ///< "" for the app pool, "zipfian/" etc. otherwise
    std::vector<trace::MemoryTrace> traces;
    std::size_t accesses = 0;
  };
  std::vector<Series> series(3);
  for (trace::App app : apps) series[0].traces.push_back(trace::generate(app, n, 1));
  series[1].prefix = "zipfian/";
  series[1].traces.push_back(
      trace::Workload::parse("trace:zipfian,footprint=64M,theta=0.99").generate(n, 1));
  series[2].prefix = "ycsb-b/";
  series[2].traces.push_back(
      trace::Workload::parse("trace:ycsb-b,footprint=64M").generate(n, 1));
  std::size_t total_accesses = 0;
  for (Series& sr : series) {
    for (const auto& trace : sr.traces) sr.accesses += trace.size();
    total_accesses += sr.accesses;
  }

  common::TablePrinter t("Simulator replay throughput (accesses/sec)");
  t.set_header({"prefetcher", "accesses/sec", "Maccess/s", "ipc(sum)"});
  std::vector<ConfigResult> results;
  sim::Simulator simulator(cfg);

  for (const Series& sr : series) {
    for (const char* spec : specs) {
      ConfigResult r;
      r.name = sr.prefix + spec;
      // Warm-up + counter capture (identical across reps: the simulator is
      // deterministic), then best-of-R for the timing.
      for (int rep = -1; rep < reps; ++rep) {
        sim::SimStats totals;
        common::Stopwatch watch;
        for (const auto& trace : sr.traces) {
          // Fresh prefetcher per app, like an ExperimentRunner cell.
          std::unique_ptr<sim::Prefetcher> pf;
          if (std::strcmp(spec, "baseline") != 0) pf = sim::make_prefetcher(spec);
          accumulate(totals, simulator.run(trace, pf.get()));
        }
        const double aps = static_cast<double>(sr.accesses) / watch.elapsed_s();
        if (rep < 0) {
          r.totals = totals;
        } else {
          r.accesses_per_sec = std::max(r.accesses_per_sec, aps);
        }
      }
      results.push_back(r);
      t.add_row({r.name, common::TablePrinter::fmt(r.accesses_per_sec, 0),
                 common::TablePrinter::fmt(r.accesses_per_sec / 1e6, 2),
                 common::TablePrinter::fmt(r.totals.ipc(), 3)});
    }
  }
  bench::emit(t, "bench_sim_throughput.csv");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"accesses_per_config\": %zu,\n  \"apps\": %zu,\n  \"sim_instr\": %zu,\n  \"configs\": [\n",
               total_accesses, apps.size(), n);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    const sim::SimStats& s = r.totals;
    std::fprintf(f,
                 "    {\"prefetcher\": \"%s\", \"accesses_per_sec\": %.0f,\n"
                 "     \"counters\": {\"instructions\": %llu, \"cycles\": %llu, "
                 "\"llc_accesses\": %llu, \"llc_hits\": %llu, "
                 "\"llc_demand_misses\": %llu, \"pf_issued\": %llu, "
                 "\"pf_useful\": %llu, \"pf_late\": %llu, \"pf_dropped\": %llu}}%s\n",
                 r.name.c_str(), r.accesses_per_sec,
                 static_cast<unsigned long long>(s.instructions),
                 static_cast<unsigned long long>(s.cycles),
                 static_cast<unsigned long long>(s.llc_accesses),
                 static_cast<unsigned long long>(s.llc_hits),
                 static_cast<unsigned long long>(s.llc_demand_misses),
                 static_cast<unsigned long long>(s.pf_issued),
                 static_cast<unsigned long long>(s.pf_useful),
                 static_cast<unsigned long long>(s.pf_late),
                 static_cast<unsigned long long>(s.pf_dropped),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] %s\n", json_path.c_str());
  return 0;
}
