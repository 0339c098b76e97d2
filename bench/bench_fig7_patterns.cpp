// Fig. 7 — memory access pattern visualization: per application, a CSV of
// (access index, page index, block delta) series for plotting, plus a
// printed summary of the pattern's spread in each dimension.
#include "bench_common.hpp"
#include "sim/simulator.hpp"

#include <fstream>

using namespace dart;

int main() {
  const std::size_t n = common::env_uint("DART_SIM_INSTR", 200000);
  const std::size_t plot_points = 4000;
  sim::SimConfig cfg;
  common::TablePrinter t("Fig. 7: memory access pattern summary (LLC stream)");
  t.set_header({"Application", "pages spanned", "delta p5", "delta p95", "pattern class"});
  for (trace::App app : bench::bench_apps()) {
    const auto llc = sim::extract_llc_trace(trace::generate(app, n, 1), cfg);
    // Dump a decimated (index, page, delta) series.
    std::string csv = "fig7_" + trace::app_name(app) + ".csv";
    for (auto& c : csv) {
      if (c == '.') c = '_';
    }
    csv = csv.substr(0, csv.size() - 4) + ".csv";
    std::ofstream out(csv);
    out << "index,page,delta\n";
    const std::size_t stride = std::max<std::size_t>(1, llc.size() / plot_points);
    std::vector<std::int64_t> deltas;
    std::uint64_t min_page = ~0ULL, max_page = 0;
    for (std::size_t i = 1; i < llc.size(); ++i) {
      const auto page = trace::page_of(llc[i].addr);
      min_page = std::min(min_page, page);
      max_page = std::max(max_page, page);
      const std::int64_t delta = static_cast<std::int64_t>(trace::block_of(llc[i].addr)) -
                                 static_cast<std::int64_t>(trace::block_of(llc[i - 1].addr));
      deltas.push_back(delta);
      if (i % stride == 0) out << i << ',' << page << ',' << delta << '\n';
    }
    std::sort(deltas.begin(), deltas.end());
    const auto pct = [&](double p) {
      return deltas.empty() ? 0
                            : deltas[static_cast<std::size_t>(p * (deltas.size() - 1))];
    };
    const char* klass = "regular";
    const std::int64_t spread = pct(0.95) - pct(0.05);
    if (spread > 100000) {
      klass = "irregular (pointer-chase)";
    } else if (spread > 500) {
      klass = "multi-region strided";
    }
    t.add_row({trace::app_name(app),
               common::TablePrinter::fmt_count(static_cast<double>(max_page - min_page + 1)),
               std::to_string(pct(0.05)), std::to_string(pct(0.95)), klass});
    std::printf("[csv] %s\n", csv.c_str());
  }
  t.print();
  return 0;
}
