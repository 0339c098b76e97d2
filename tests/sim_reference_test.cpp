// Bit-exactness contract for the optimized replay loop (DESIGN.md §8).
//
// `ReferenceSimulator` is a deliberately naive, straight-line
// reimplementation of the simulator's specification: an AoS
// timestamp-LRU cache, a std::deque window, a std::unordered_map
// in-flight table, and std::priority_queues over totally ordered
// (time, seq) fill events. It shares no code with sim::Cache /
// sim::Simulator / sim::SimWorkspace. Every SimStats counter must match
// exactly — not just IPC — across pattern classes, prefetchers, and
// saturation configs. Any optimization that changes simulated behavior
// fails here. A last test pins the Table IX rule-based replay totals
// (apps, zipfian, YCSB-B under baseline/stride/BO/ISB) to recorded values.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"
#include "trace/workloads.hpp"

namespace dart::sim {
namespace {

// ------------------------------------------------------- reference cache

/// The seed's AoS set-associative cache: valid/prefetched/used bools and a
/// global LRU timestamp per line, first-invalid-way victim rule.
class RefCache {
 public:
  RefCache(std::size_t size_bytes, std::size_t ways, std::size_t line_bytes = 64)
      : sets_(size_bytes / (ways * line_bytes)), ways_(ways) {
    lines_.assign(sets_ * ways_, Line{});
  }

  bool access(std::uint64_t block) {
    last_useful_ = false;
    Line* base = lines_.data() + (block % sets_) * ways_;
    const std::uint64_t tag = block / sets_;
    for (std::size_t w = 0; w < ways_; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = ++tick_;
        if (line.prefetched && !line.used) {
          line.used = true;
          last_useful_ = true;
        }
        return true;
      }
    }
    return false;
  }

  bool contains(std::uint64_t block) const {
    const Line* base = lines_.data() + (block % sets_) * ways_;
    const std::uint64_t tag = block / sets_;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
  }

  void insert(std::uint64_t block, bool prefetched) {
    Line* base = lines_.data() + (block % sets_) * ways_;
    const std::uint64_t tag = block / sets_;
    Line* victim = nullptr;
    for (std::size_t w = 0; w < ways_; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) return;  // already present
      if (!line.valid) {
        if (victim == nullptr || victim->valid) victim = &line;
      } else if (victim == nullptr || (victim->valid && line.lru < victim->lru)) {
        victim = &line;
      }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = ++tick_;
    victim->prefetched = prefetched;
    victim->used = false;
  }

  bool last_hit_was_useful_prefetch() const { return last_useful_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool prefetched = false;
    bool used = false;
  };
  std::size_t sets_;
  std::size_t ways_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  bool last_useful_ = false;
};

// --------------------------------------------------- reference simulator

/// Fill event with the spec's total order: fill cycle, then issue order.
struct RefFill {
  std::uint64_t time;
  std::uint64_t seq;
  std::uint64_t block;
  bool operator>(const RefFill& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

SimStats reference_run(const trace::MemoryTrace& trace, const SimConfig& cfg,
                       Prefetcher* prefetcher) {
  SimStats stats;
  RefCache l1(cfg.l1_size, cfg.l1_ways);
  RefCache l2(cfg.l2_size, cfg.l2_ways);
  RefCache llc(cfg.llc_size, cfg.llc_ways);

  std::deque<std::pair<std::uint64_t, std::uint64_t>> window;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> mshr;
  std::unordered_map<std::uint64_t, std::uint64_t> inflight_pf;
  std::priority_queue<RefFill, std::vector<RefFill>, std::greater<>> fill_queue;
  std::priority_queue<RefFill, std::vector<RefFill>, std::greater<>> demand_fill_queue;

  std::vector<std::uint64_t> pf_candidates;
  std::uint64_t last_commit = 0;
  std::uint64_t prev_issue = 0;
  std::uint64_t fill_seq = 0;
  const bool notify_fills = prefetcher != nullptr && prefetcher->trains_on_fill();

  const std::uint64_t demand_miss_latency =
      cfg.l1_latency + cfg.l2_latency + cfg.llc_latency + cfg.dram_latency;

  for (const auto& acc : trace) {
    const std::uint64_t block = trace::block_of(acc.addr);

    std::uint64_t t = acc.instr_id / cfg.issue_width;
    if (t < prev_issue) t = prev_issue;

    while (!window.empty() && window.front().first + cfg.rob_entries <= acc.instr_id) {
      t = std::max(t, window.front().second);
      window.pop_front();
    }
    while (!window.empty() && window.size() >= cfg.lsq_entries) {
      t = std::max(t, window.front().second);
      window.pop_front();
    }

    while (notify_fills && !demand_fill_queue.empty() && demand_fill_queue.top().time <= t) {
      prefetcher->on_fill(demand_fill_queue.top().block, /*was_prefetch=*/false);
      demand_fill_queue.pop();
    }
    while (!fill_queue.empty() && fill_queue.top().time <= t) {
      const RefFill f = fill_queue.top();
      fill_queue.pop();
      auto it = inflight_pf.find(f.block);
      if (it != inflight_pf.end() && it->second == f.time) {
        llc.insert(f.block, /*prefetched=*/true);
        if (prefetcher != nullptr) prefetcher->on_fill(f.block, /*was_prefetch=*/true);
        inflight_pf.erase(it);
      }
    }

    std::uint64_t complete;
    if (l1.access(block)) {
      complete = t + cfg.l1_latency;
    } else if (l2.access(block)) {
      complete = t + cfg.l1_latency + cfg.l2_latency;
      l1.insert(block, false);
    } else {
      ++stats.llc_accesses;
      const bool llc_hit = llc.access(block);
      if (llc_hit) {
        ++stats.llc_hits;
        if (llc.last_hit_was_useful_prefetch()) ++stats.pf_useful;
        complete = t + cfg.l1_latency + cfg.l2_latency + cfg.llc_latency;
        while (!mshr.empty() && mshr.top() <= t) mshr.pop();
      } else {
        auto pf_it = inflight_pf.find(block);
        if (pf_it != inflight_pf.end() && pf_it->second <= t + demand_miss_latency) {
          ++stats.pf_late;
          complete = std::max(t + cfg.l1_latency + cfg.l2_latency + cfg.llc_latency,
                              pf_it->second);
          llc.insert(block, false);
          inflight_pf.erase(pf_it);
        } else {
          if (pf_it != inflight_pf.end()) inflight_pf.erase(pf_it);
          ++stats.llc_demand_misses;
          std::uint64_t issue = t;
          while (!mshr.empty() && mshr.size() >= cfg.llc_mshrs) {
            issue = std::max(issue, mshr.top());
            mshr.pop();
          }
          complete = issue + demand_miss_latency;
          mshr.push(complete);
          while (!mshr.empty() && mshr.top() <= t) mshr.pop();
          llc.insert(block, false);
          if (notify_fills) demand_fill_queue.push({complete, fill_seq++, block});
        }
        l2.insert(block, false);
        l1.insert(block, false);
      }

      if (prefetcher != nullptr) {
        pf_candidates.clear();
        prefetcher->on_access(block, acc.pc, llc_hit, t, pf_candidates);
        const std::uint64_t ready = t + prefetcher->prediction_latency();
        std::size_t accepted = 0;
        for (std::uint64_t cand : pf_candidates) {
          if (accepted >= cfg.max_degree) {
            ++stats.pf_dropped;
            continue;
          }
          if (llc.contains(cand) || inflight_pf.count(cand) != 0) {
            ++stats.pf_dropped;
            continue;
          }
          if (inflight_pf.size() >= cfg.prefetch_queue) {
            ++stats.pf_dropped;
            continue;
          }
          const std::uint64_t fill_time = ready + cfg.dram_latency;
          inflight_pf.emplace(cand, fill_time);
          fill_queue.push({fill_time, fill_seq++, cand});
          ++stats.pf_issued;
          ++accepted;
        }
      }
    }

    window.emplace_back(acc.instr_id, complete);
    last_commit = std::max(last_commit, complete);
    prev_issue = t;
  }

  if (!trace.empty()) {
    stats.instructions = trace.back().instr_id - trace.front().instr_id + 1;
  }
  stats.cycles = std::max(last_commit, stats.instructions / cfg.issue_width);
  return stats;
}

// ------------------------------------------------------------- harness

void expect_identical(const SimStats& a, const SimStats& b, const std::string& label) {
  EXPECT_EQ(a.instructions, b.instructions) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.llc_accesses, b.llc_accesses) << label;
  EXPECT_EQ(a.llc_hits, b.llc_hits) << label;
  EXPECT_EQ(a.llc_demand_misses, b.llc_demand_misses) << label;
  EXPECT_EQ(a.pf_issued, b.pf_issued) << label;
  EXPECT_EQ(a.pf_useful, b.pf_useful) << label;
  EXPECT_EQ(a.pf_late, b.pf_late) << label;
  EXPECT_EQ(a.pf_dropped, b.pf_dropped) << label;
}

using PrefetcherFactory = std::function<std::unique_ptr<Prefetcher>()>;

/// Runs reference and optimized loops with independent, identically
/// configured prefetcher instances, through a shared workspace, and
/// demands identical counters.
void check(const trace::MemoryTrace& trace, const SimConfig& cfg,
           const PrefetcherFactory& factory, SimWorkspace& ws, const std::string& label) {
  std::unique_ptr<Prefetcher> ref_pf = factory ? factory() : nullptr;
  std::unique_ptr<Prefetcher> opt_pf = factory ? factory() : nullptr;
  const SimStats ref = reference_run(trace, cfg, ref_pf.get());
  const SimStats opt = Simulator(cfg).run(trace, opt_pf.get(), ws);
  expect_identical(ref, opt, label);
}

/// Emits a fixed stride; `degree` controls queue pressure.
class TestStride final : public Prefetcher {
 public:
  TestStride(std::int64_t stride, std::size_t degree) : stride_(stride), degree_(degree) {}
  void on_access(std::uint64_t block, std::uint64_t, bool, std::uint64_t,
                 std::vector<std::uint64_t>& out) override {
    for (std::size_t d = 1; d <= degree_; ++d) {
      out.push_back(block + static_cast<std::uint64_t>(stride_ * static_cast<std::int64_t>(d)));
    }
  }
  std::size_t storage_bytes() const override { return 0; }
  std::string name() const override { return "TestStride"; }

 private:
  std::int64_t stride_;
  std::size_t degree_;
};

std::vector<trace::MemoryTrace> pattern_traces() {
  std::vector<trace::MemoryTrace> traces;
  for (trace::App app : {trace::App::kLibquantum, trace::App::kMcf, trace::App::kGcc,
                         trace::App::kBwaves, trace::App::kWrf}) {
    traces.push_back(trace::generate(app, 25000, 7));
  }
  // Dense all-miss stream with ids not starting at zero.
  trace::MemoryTrace shifted;
  for (std::size_t i = 0; i < 20000; ++i) {
    shifted.push_back({1000000 + (i + 1) * 4, 0x400 + (i % 7) * 8, (i << 14) * 64, false});
  }
  traces.push_back(std::move(shifted));
  return traces;
}

std::vector<std::pair<std::string, PrefetcherFactory>> prefetcher_grid() {
  std::vector<std::pair<std::string, PrefetcherFactory>> grid;
  grid.emplace_back("none", PrefetcherFactory{});
  grid.emplace_back("oracle-stride",
                    [] { return std::make_unique<TestStride>(1 << 14, 4); });
  grid.emplace_back("wrong-stride", [] { return std::make_unique<TestStride>(-9, 2); });
  grid.emplace_back("flood", [] { return std::make_unique<TestStride>(1 << 20, 64); });
  for (const char* spec : {"stride", "bo", "isb", "nextline"}) {
    grid.emplace_back(spec, [spec] { return make_prefetcher(spec); });
  }
  return grid;
}

TEST(SimReference, DefaultConfigAllPatternsAllPrefetchers) {
  SimWorkspace ws;  // shared across all runs: reuse must not leak state
  const SimConfig cfg;
  for (const auto& trace : pattern_traces()) {
    for (const auto& [name, factory] : prefetcher_grid()) {
      check(trace, cfg, factory, ws, name);
    }
  }
}

TEST(SimReference, PrefetchQueueFullConfig) {
  SimWorkspace ws;
  SimConfig cfg;
  cfg.prefetch_queue = 2;  // saturate the in-flight table constantly
  cfg.max_degree = 8;
  for (const auto& trace : pattern_traces()) {
    for (const auto& [name, factory] : prefetcher_grid()) {
      check(trace, cfg, factory, ws, "queue-full/" + name);
    }
  }
}

TEST(SimReference, MshrSaturatedConfig) {
  SimWorkspace ws;
  SimConfig cfg;
  cfg.llc_mshrs = 1;  // serialize all DRAM misses
  for (const auto& trace : pattern_traces()) {
    for (const auto& [name, factory] : prefetcher_grid()) {
      check(trace, cfg, factory, ws, "mshr-sat/" + name);
    }
  }
}

TEST(SimReference, NonDefaultGeometries) {
  SimWorkspace ws;
  // Power-of-two L1 (64 sets) and tiny shared levels; also a non-power-of
  // two L2 (96 KB / 8 ways = 192 sets).
  SimConfig pow2;
  pow2.l1_ways = 16;
  SimConfig odd;
  odd.l2_size = 96 * 1024;
  odd.llc_size = 3 * 1024 * 1024;  // 3072 sets, non-power-of-two
  for (const SimConfig& cfg : {pow2, odd}) {
    for (const auto& trace : pattern_traces()) {
      for (const auto& [name, factory] : prefetcher_grid()) {
        check(trace, cfg, factory, ws, "geometry/" + name);
      }
    }
  }
}

TEST(SimReference, WorkspaceReuseIsStateless) {
  // Same trace, same config, same workspace: run 1 warms the arenas, run 2
  // must reproduce run 1 exactly (and match a fresh workspace).
  SimWorkspace ws;
  const SimConfig cfg;
  const auto trace = trace::generate(trace::App::kMcf, 30000, 11);
  Simulator sim(cfg);
  auto bo1 = make_prefetcher("bo");
  const SimStats first = sim.run(trace, bo1.get(), ws);
  auto bo2 = make_prefetcher("bo");
  const SimStats second = sim.run(trace, bo2.get(), ws);
  expect_identical(first, second, "reuse");
  SimWorkspace fresh;
  auto bo3 = make_prefetcher("bo");
  expect_identical(first, sim.run(trace, bo3.get(), fresh), "fresh");
}

TEST(SimReference, ExtractLlcTraceMatchesReferenceFilter) {
  const SimConfig cfg;
  const auto raw = trace::generate(trace::App::kGcc, 30000, 5);
  // Naive reference filter.
  RefCache l1(cfg.l1_size, cfg.l1_ways);
  RefCache l2(cfg.l2_size, cfg.l2_ways);
  trace::MemoryTrace expected;
  for (const auto& acc : raw) {
    const std::uint64_t block = trace::block_of(acc.addr);
    if (l1.access(block)) continue;
    if (l2.access(block)) {
      l1.insert(block, false);
      continue;
    }
    l2.insert(block, false);
    l1.insert(block, false);
    expected.push_back(acc);
  }
  SimWorkspace ws;
  const trace::MemoryTrace got = extract_llc_trace(raw, cfg, ws);
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].addr, got[i].addr);
    EXPECT_EQ(expected[i].instr_id, got[i].instr_id);
  }
  // The thread-local overload and a second (reused-workspace) pass agree.
  const trace::MemoryTrace again = extract_llc_trace(raw, cfg, ws);
  EXPECT_EQ(got.size(), extract_llc_trace(raw, cfg).size());
  EXPECT_EQ(got.size(), again.size());
}

// ------------------------------------------------ Table IX replay pin

/// One pinned series: SimStats summed over the series' traces.
struct PinnedSeries {
  const char* name;  ///< "<prefetcher>" for the app pool, "<workload>/<prefetcher>" otherwise
  SimStats totals;
};

// Recorded at 400,000 accesses per trace, seed 1, default SimConfig. The
// reference loop above checks the simulator against its specification;
// these totals also pin the trace generators and the rule-based
// prefetchers, which feed both sides of that check.
constexpr PinnedSeries kTable9Pins[] = {
    {"baseline", {28400879, 15689767, 1617704, 709523, 908181, 0, 0, 0, 0}},
    {"stride", {28400879, 13943981, 1856089, 1003514, 543574, 368691, 55781, 309001, 663075}},
    {"bo", {28400879, 14128879, 2095513, 1353617, 601300, 644918, 180932, 140596, 90134}},
    {"isb", {28400879, 15375987, 1617884, 725857, 776638, 231943, 28101, 115389, 1400821}},
    {"zipfian/baseline", {1199998, 1112406, 208687, 92456, 116231, 0, 0, 0, 0}},
    {"zipfian/stride", {1199998, 1112406, 208687, 92456, 116231, 0, 0, 0, 0}},
    {"zipfian/bo", {1199998, 1107628, 244967, 138871, 106083, 84777, 12934, 13, 21319}},
    {"zipfian/isb", {1199998, 1112556, 208692, 92462, 116230, 1277, 48, 0, 166138}},
    {"ycsb-b/baseline", {1199998, 1079715, 252890, 110409, 142481, 0, 0, 0, 0}},
    {"ycsb-b/stride", {1199998, 1079715, 252890, 110409, 142481, 0, 0, 0, 0}},
    {"ycsb-b/bo", {1199998, 1082537, 249286, 105309, 143864, 83002, 2511, 113, 5735}},
    {"ycsb-b/isb", {1199998, 1079920, 252943, 110371, 142571, 5041, 306, 1, 193098}},
};

TEST(SimReference, Table9RuleBasedReplayCountersArePinned) {
  // Fixed inputs: every Table IV app, plus one zipfian and one YCSB-B
  // synthetic workload, each 400,000 accesses at seed 1.
  constexpr std::size_t kAccesses = 400000;
  struct Series {
    std::string prefix;
    std::vector<trace::MemoryTrace> traces;
  };
  std::vector<Series> series(3);
  ASSERT_EQ(trace::all_apps().size(), 8u);
  for (trace::App app : trace::all_apps()) {
    series[0].traces.push_back(trace::generate(app, kAccesses, 1));
  }
  series[1].prefix = "zipfian/";
  series[1].traces.push_back(
      trace::Workload::parse("trace:zipfian,footprint=64M,theta=0.99").generate(kAccesses, 1));
  series[2].prefix = "ycsb-b/";
  series[2].traces.push_back(
      trace::Workload::parse("trace:ycsb-b,footprint=64M").generate(kAccesses, 1));
  std::size_t total_accesses = 0;
  for (const Series& sr : series) {
    for (const auto& trace : sr.traces) total_accesses += trace.size();
  }
  EXPECT_EQ(total_accesses, 4000000u);

  Simulator simulator{SimConfig{}};
  std::size_t row = 0;
  for (const Series& sr : series) {
    for (const char* spec : {"baseline", "stride", "bo", "isb"}) {
      ASSERT_LT(row, std::size(kTable9Pins));
      const PinnedSeries& pin = kTable9Pins[row++];
      const std::string name = sr.prefix + spec;
      ASSERT_EQ(name, pin.name);
      SimStats sum;
      for (const auto& trace : sr.traces) {
        // Fresh prefetcher per trace, like an ExperimentRunner cell.
        std::unique_ptr<Prefetcher> pf;
        if (std::string_view(spec) != "baseline") pf = make_prefetcher(spec);
        const SimStats s = simulator.run(trace, pf.get());
        sum.instructions += s.instructions;
        sum.cycles += s.cycles;
        sum.llc_accesses += s.llc_accesses;
        sum.llc_hits += s.llc_hits;
        sum.llc_demand_misses += s.llc_demand_misses;
        sum.pf_issued += s.pf_issued;
        sum.pf_useful += s.pf_useful;
        sum.pf_late += s.pf_late;
        sum.pf_dropped += s.pf_dropped;
      }
      expect_identical(pin.totals, sum, name);
    }
  }
  EXPECT_EQ(row, std::size(kTable9Pins));
}

}  // namespace
}  // namespace dart::sim
