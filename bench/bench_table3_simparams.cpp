// Table III — simulation parameters, plus a baseline sanity run per app so
// the printed configuration is demonstrably the one the simulator executes.
#include "bench_common.hpp"
#include "sim/simulator.hpp"

using namespace dart;

int main() {
  sim::SimConfig cfg;
  common::TablePrinter t("Table III: Simulation parameters");
  t.set_header({"Parameter", "Value"});
  t.add_row({"CPU", "4 GHz, 4-wide OoO, " + std::to_string(cfg.rob_entries) + "-entry ROB, " +
                         std::to_string(cfg.lsq_entries) + "-entry LSQ"});
  t.add_row({"L1 D-cache", common::TablePrinter::fmt_bytes(cfg.l1_size) + ", " +
                               std::to_string(cfg.l1_ways) + "-way, " +
                               std::to_string(cfg.l1_mshrs) + "-entry MSHR, " +
                               std::to_string(cfg.l1_latency) + "-cycle"});
  t.add_row({"L2 Cache", common::TablePrinter::fmt_bytes(cfg.l2_size) + ", " +
                             std::to_string(cfg.l2_ways) + "-way, " +
                             std::to_string(cfg.l2_mshrs) + "-entry MSHR, " +
                             std::to_string(cfg.l2_latency) + "-cycle"});
  t.add_row({"LL Cache", common::TablePrinter::fmt_bytes(cfg.llc_size) + ", " +
                             std::to_string(cfg.llc_ways) + "-way, " +
                             std::to_string(cfg.llc_mshrs) + "-entry MSHR, " +
                             std::to_string(cfg.llc_latency) + "-cycle"});
  t.add_row({"DRAM", std::to_string(cfg.dram_latency) + "-cycle access (tRP=tRCD=tCAS=12.5ns)"});
  t.add_row({"Prefetch engine", std::to_string(cfg.prefetch_queue) + "-entry queue, degree <= " +
                                    std::to_string(cfg.max_degree)});
  bench::emit(t, "table3_simparams.csv");

  // Baseline IPC sanity sweep (no prefetcher).
  common::TablePrinter runs("Baseline simulation sanity (no prefetcher)");
  runs.set_header({"App", "Instructions", "Cycles", "IPC", "LLC accesses", "LLC misses"});
  const std::size_t n = common::env_uint("DART_SIM_INSTR", 200000);
  sim::Simulator simulator(cfg);
  for (trace::App app : bench::bench_apps()) {
    const auto trace = trace::generate(app, n, 1);
    const sim::SimStats s = simulator.run(trace);
    runs.add_row({trace::app_name(app), common::TablePrinter::fmt_count(s.instructions),
                  common::TablePrinter::fmt_count(s.cycles),
                  common::TablePrinter::fmt(s.ipc(), 3),
                  common::TablePrinter::fmt_count(s.llc_accesses),
                  common::TablePrinter::fmt_count(s.llc_demand_misses)});
  }
  bench::emit(runs, "table3_baseline_runs.csv");
  return 0;
}
