// End-to-end benchmark program (bench/e2e/README.md has the full catalogue).
//
//   dart_e2e --workload sim-dart|sim-rule|serve-open --seed N --seconds S
//            --trace 0|1 [--smoke] [--out-dir DIR] [--golden FILE]
//            [--write-golden]
//
// Workloads:
//   sim-dart    DART (synthetic paper student, K=128/C=2, hash-tree encoders)
//               inside sim::Simulator over the 8 Table IV apps + YCSB-B.
//   sim-rule    the same traces with no prefetcher, BO and ISB.
//   serve-open  open-loop Poisson load on a 2-shard PrefetchServer that
//               cold-starts from a .dart written during set-up.
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics. Layers are timed only from
// outside, around calls into public functions. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the exit code is
// nonzero when any correctness check failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/artifact_cache.hpp"
#include "core/configs.hpp"
#include "io/artifact.hpp"
#include "kernel_replay.hpp"
#include "open_loop.hpp"
#include "prefetch/nn_prefetchers.hpp"
#include "serve/server.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "synthetic_model.hpp"
#include "tracer.hpp"
#include "trace/generators.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace dart;
using e2e::now_ns;
using e2e::Tracer;

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "bench/e2e/out";
  std::string golden;
  bool write_golden = false;
};

const char* const kWorkloads[] = {"sim-dart", "sim-rule", "serve-open"};

/// Input sizes: the full benchmark and the --smoke shrink.
struct Sizes {
  std::size_t accesses;       ///< per simulated trace
  int setup_reps;             ///< set-ups per run (setup_s is their median)
  int min_passes;             ///< timed simulator passes, at least
  std::size_t serve_windows;  ///< pre-segmented feature windows
  std::size_t replay_windows; ///< windows replayed kernel by kernel
  double warm_s;              ///< serve warm-up before each measured phase
};

Sizes sizes_for(bool smoke) {
  if (smoke) return Sizes{20000, 1, 2, 1024, 256, 0.05};
  return Sizes{400000, 5, 3, 16384, 4096, 0.25};
}

// ------------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  bool in_json;
};

class Report {
 public:
  /// First value set for a name wins: a traced run fills its own layers
  /// first, and side probes only fill names still missing.
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    add(name, value, unit, note, true);
  }
  /// A line printed for reading but kept out of the result object.
  void extra(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
    add(name, value, unit, note, false);
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note, bool in_json) {
    for (const Metric& m : metrics_) {
      if (m.name == name) return;
    }
    metrics_.push_back(Metric{name, value, unit, note, in_json});
  }
  std::vector<Metric> metrics_;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void expect(bool ok, const std::string& what) { add(1, ok ? 0 : 1, what); }
  void add(std::uint64_t tried, std::uint64_t bad, const std::string& what) {
    attempted += tried;
    failed += bad;
    if (bad != 0) errors.push_back(what + " (" + std::to_string(bad) + ")");
  }
};

/// Quartiles as Python's statistics.quantiles(data, n=4) gives them
/// (the "exclusive" method), plus the sample count.
struct Spread {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  std::size_t n = 0;
  std::string note() const {
    char buf[160];
    std::snprintf(buf, sizeof buf, "median of %zu, q1 %.6g, q3 %.6g", n, q1, q3);
    return buf;
  }
};

Spread spread(std::vector<double> v) {
  Spread s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    s.q1 = s.median = s.q3 = v[0];
    return s;
  }
  const double m = static_cast<double>(v.size() + 1);
  auto cut = [&](int i) {
    std::size_t j = static_cast<std::size_t>(std::floor(i * m / 4.0));
    j = std::min(std::max<std::size_t>(j, 1), v.size() - 1);
    const double delta = i * m - static_cast<double>(j) * 4.0;
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.median = cut(2);
  s.q3 = cut(3);
  return s;
}

double median(std::vector<double> v) { return spread(std::move(v)).median; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

// ------------------------------------------------------------------- golden

/// golden_seed1.json holds one `"key": {...}` entry per line, so an entry is
/// checked by exact text and rewritten without a JSON parser.
class Golden {
 public:
  explicit Golden(std::string path) : path_(std::move(path)) {
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t q = line.find('"');
      const std::size_t e = q == std::string::npos ? q : line.find("\": ", q + 1);
      if (e == std::string::npos) continue;
      std::string body = line.substr(e + 3);
      while (!body.empty() && (body.back() == ',' || body.back() == ' ')) body.pop_back();
      entries_[line.substr(q + 1, e - q - 1)] = body;
    }
  }

  /// True when `key` is pinned to exactly `body`.
  bool matches(const std::string& key, const std::string& body) const {
    auto it = entries_.find(key);
    return it != entries_.end() && it->second == body;
  }
  void put(const std::string& key, const std::string& body) { entries_[key] = body; }
  bool save() const {
    std::ofstream out(path_);
    out << "{\n";
    std::size_t i = 0;
    for (const auto& [key, body] : entries_) {
      out << "  \"" << key << "\": " << body << (++i < entries_.size() ? ",\n" : "\n");
    }
    out << "}\n";
    return static_cast<bool>(out);
  }

 private:
  std::string path_;
  std::map<std::string, std::string> entries_;
};

/// Seed-1 pinning shared by all workloads: compare, or record when asked.
struct GoldenCheck {
  Golden* golden = nullptr;  ///< null: this run is not pinned
  bool write = false;
  std::string prefix;        ///< "" or "smoke/"

  void check(const std::string& key, const std::string& body, Checks& checks) const {
    if (golden == nullptr) return;
    if (write) {
      golden->put(prefix + key, body);
      return;
    }
    checks.expect(golden->matches(prefix + key, body),
                  "golden_seed1.json mismatch for " + prefix + key + ": got " + body);
  }
};

// -------------------------------------------------------------- simulation

std::vector<trace::Workload> sim_workloads() {
  std::vector<trace::Workload> w(trace::all_apps().begin(), trace::all_apps().end());
  w.push_back(trace::Workload::parse("trace:ycsb-b,footprint=64M"));
  return w;
}

prefetch::NnAdapterOptions dart_adapter_options() {
  prefetch::NnAdapterOptions o;
  o.prep = core::default_preprocess();
  o.latency = 100;  // Table VIII DART
  o.degree = 16;
  o.threshold = 0.5f;
  return o;  // initiation_interval = trigger_sample = 1: trigger on every access
}

std::shared_ptr<const tabular::TabularPredictor> synthetic_model() {
  return std::make_shared<const tabular::TabularPredictor>(
      bench::synthetic_predictor(core::paper_student_config()));
}

std::unique_ptr<sim::Prefetcher> make_prefetcher(
    const std::string& kind, const std::shared_ptr<const tabular::TabularPredictor>& model) {
  if (kind == "none") return nullptr;
  if (kind == "DART") return std::make_unique<prefetch::DartPrefetcher>(model, dart_adapter_options());
  return sim::make_prefetcher(kind == "BO" ? "bo" : "isb");
}

/// What a timing decorator saw over the calls it forwarded.
struct CallProbe {
  Tracer* tracer = nullptr;
  Tracer::Series* series = nullptr;
  Tracer::Ref parent;
  std::uint64_t request = 0;
  e2e::Windows* capture = nullptr;  ///< history windows, when set
  std::size_t capture_every = 1;    ///< copy the window of every n-th call
  std::size_t capture_max = 0;
  std::uint64_t calls = 0, calls_with_output = 0, candidates = 0;
};

/// Forwards every Prefetcher call to `inner`, recording a span per on_access
/// and copying the adapter's history window (the last T LLC accesses) of
/// every `capture_every`-th call.
class TracedPrefetcher final : public sim::Prefetcher {
 public:
  TracedPrefetcher(sim::Prefetcher& inner, CallProbe& probe, std::size_t history)
      : inner_(inner), probe_(probe), t_len_(history), blocks_(history), pcs_(history) {}

  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) override {
    if (probe_.capture != nullptr) remember(block, pc);
    const std::size_t before = out.size();
    const Tracer::Ref span = probe_.tracer->open(probe_.series);
    const std::uint64_t t0 = now_ns();
    inner_.on_access(block, pc, hit, cycle, out);
    probe_.tracer->record(span, probe_.parent, probe_.request, t0, now_ns());
    ++probe_.calls;
    if (out.size() > before) {
      ++probe_.calls_with_output;
      probe_.candidates += out.size() - before;
    }
  }
  void on_fill(std::uint64_t block, bool was_prefetch) override { inner_.on_fill(block, was_prefetch); }
  bool trains_on_fill() const override { return inner_.trains_on_fill(); }
  std::size_t prediction_latency() const override { return inner_.prediction_latency(); }
  std::size_t storage_bytes() const override { return inner_.storage_bytes(); }
  bool shares_mutable_model() const override { return inner_.shares_mutable_model(); }
  std::string name() const override { return inner_.name(); }

 private:
  void remember(std::uint64_t block, std::uint64_t pc) {
    blocks_[pos_] = block;
    pcs_[pos_] = pc;
    pos_ = (pos_ + 1) % t_len_;
    if (++seen_ < t_len_ || seen_ % probe_.capture_every != 0) return;
    e2e::Windows& w = *probe_.capture;
    if (w.count() >= probe_.capture_max) return;
    w.t_len = t_len_;
    for (std::size_t t = 0; t < t_len_; ++t) {  // oldest -> newest, as the adapter orders it
      w.blocks.push_back(blocks_[(pos_ + t) % t_len_]);
      w.pcs.push_back(pcs_[(pos_ + t) % t_len_]);
    }
  }

  sim::Prefetcher& inner_;
  CallProbe& probe_;
  std::size_t t_len_;
  std::vector<std::uint64_t> blocks_, pcs_;
  std::size_t pos_ = 0;
  std::uint64_t seen_ = 0;
};

bool same_counters(const sim::SimStats& a, const sim::SimStats& b) {
  return a.instructions == b.instructions && a.cycles == b.cycles &&
         a.llc_accesses == b.llc_accesses && a.llc_hits == b.llc_hits &&
         a.llc_demand_misses == b.llc_demand_misses && a.pf_issued == b.pf_issued &&
         a.pf_useful == b.pf_useful && a.pf_late == b.pf_late && a.pf_dropped == b.pf_dropped;
}

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

std::string counters_json(const sim::SimStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"instructions\": %llu, \"cycles\": %llu, \"llc_accesses\": %llu, "
                "\"llc_hits\": %llu, \"llc_demand_misses\": %llu, \"pf_issued\": %llu, "
                "\"pf_useful\": %llu, \"pf_late\": %llu, \"pf_dropped\": %llu}",
                static_cast<unsigned long long>(s.instructions),
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.llc_accesses),
                static_cast<unsigned long long>(s.llc_hits),
                static_cast<unsigned long long>(s.llc_demand_misses),
                static_cast<unsigned long long>(s.pf_issued),
                static_cast<unsigned long long>(s.pf_useful),
                static_cast<unsigned long long>(s.pf_late),
                static_cast<unsigned long long>(s.pf_dropped));
  return buf;
}

struct SimParams {
  bool dart = true;          ///< sim-dart (DART) or sim-rule (none, BO, ISB)
  std::size_t accesses = 0;  ///< per trace
  int setup_reps = 1;
  int min_passes = 1;
  double seconds = 0.0;      ///< timed-pass budget
  bool traced = false;       ///< alternate untraced and traced passes
  std::size_t capture = 0;   ///< history windows to copy in the first traced pass
};

struct SimOutcome {
  std::vector<double> setup_s, generate_s;
  std::vector<double> traced_pass_s, untraced_pass_s;
  std::vector<std::vector<double>> cell_s;  ///< untraced seconds per (prefetcher, trace) cell
  std::map<std::string, sim::SimStats> totals;  ///< per prefetcher, one pass
  double ipc_speedup = 0.0;   ///< geomean over traces, primary vs none
  std::string primary;        ///< DART or BO
  std::vector<std::string> measured;
  std::map<std::string, CallProbe> probes;  ///< per prefetcher, traced passes
  int traced_passes = 0;
  std::size_t accesses_per_pass = 0;  ///< per prefetcher
  e2e::Windows windows;
  std::shared_ptr<const tabular::TabularPredictor> model;
};

SimOutcome run_sim(const SimParams& p, std::uint64_t seed, const GoldenCheck& golden,
                   Checks& checks, Tracer* tracer) {
  SimOutcome out;
  out.primary = p.dart ? "DART" : "BO";
  out.measured = p.dart ? std::vector<std::string>{"DART"}
                        : std::vector<std::string>{"none", "BO", "ISB"};
  const std::vector<std::string> warm = p.dart ? std::vector<std::string>{"none", "DART"}
                                               : out.measured;

  // Set-up: traces (and, for DART, the predictor), repeated; the last stays.
  std::vector<trace::MemoryTrace> traces;
  const std::vector<trace::Workload> workloads = sim_workloads();
  for (int rep = 0; rep < p.setup_reps; ++rep) {
    traces.clear();
    out.model.reset();
    const std::uint64_t t0 = now_ns();
    for (const trace::Workload& w : workloads) traces.push_back(w.generate(p.accesses, seed));
    out.generate_s.push_back(seconds_since(t0));
    if (p.dart) out.model = synthetic_model();
    out.setup_s.push_back(seconds_since(t0));
  }
  for (const auto& t : traces) out.accesses_per_pass += t.size();

  sim::Simulator simulator{sim::SimConfig{}};
  const std::size_t history = dart_adapter_options().prep.history;
  std::map<std::string, std::vector<sim::SimStats>> reference;

  // One cell: a fresh prefetcher over one trace. Every timed cell is
  // checked against the warm-up pass (the simulator is deterministic).
  auto cell = [&](const std::string& kind, std::size_t i, CallProbe* probe) {
    std::unique_ptr<sim::Prefetcher> pf = make_prefetcher(kind, out.model);
    if (pf == nullptr || probe == nullptr) return simulator.run(traces[i], pf.get());
    TracedPrefetcher traced(*pf, *probe, history);
    return simulator.run(traces[i], &traced);
  };

  for (const std::string& kind : warm) {
    sim::SimStats total;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      reference[kind].push_back(cell(kind, i, nullptr));
      accumulate(total, reference[kind].back());
    }
    out.totals[kind] = total;
    golden.check(std::string(p.dart ? "sim-dart/" : "sim-rule/") + kind, counters_json(total),
                 checks);
  }
  double log_sum = 0.0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    log_sum += std::log(reference[out.primary][i].ipc() / reference["none"][i].ipc());
  }
  out.ipc_speedup = std::exp(log_sum / static_cast<double>(traces.size()));

  out.cell_s.resize(out.measured.size() * traces.size());
  auto untraced_pass = [&] {
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = 0; k < out.measured.size(); ++k) {
      for (std::size_t i = 0; i < traces.size(); ++i) {
        const std::uint64_t c0 = now_ns();
        const sim::SimStats s = cell(out.measured[k], i, nullptr);
        out.cell_s[k * traces.size() + i].push_back(seconds_since(c0));
        checks.expect(same_counters(s, reference[out.measured[k]][i]),
                      "sim counters differ between passes: " + out.measured[k] + " on " +
                          workloads[i].name());
      }
    }
    out.untraced_pass_s.push_back(seconds_since(t0));
  };
  auto traced_pass = [&] {
    const std::uint64_t t0 = now_ns();
    for (const std::string& kind : out.measured) {
      Tracer::Series* run_series = tracer->series("sim.run." + kind);
      CallProbe& probe = out.probes[kind];
      probe.tracer = tracer;
      probe.series = tracer->series("prefetch.on_access." + kind);
      // Windows come from the first traced pass, spread over every trace.
      probe.capture = kind == out.primary && out.traced_passes == 0 ? &out.windows : nullptr;
      probe.capture_max = p.capture;
      probe.capture_every = std::max<std::size_t>(1, out.accesses_per_pass / std::max<std::size_t>(1, p.capture));
      for (std::size_t i = 0; i < traces.size(); ++i) {
        const Tracer::Ref span = tracer->open(run_series);
        probe.parent = span;
        probe.request = i;
        const std::uint64_t c0 = now_ns();
        const sim::SimStats s = cell(kind, i, kind == "none" ? nullptr : &probe);
        tracer->record(span, Tracer::Ref{}, i, c0, now_ns());
        checks.expect(same_counters(s, reference[kind][i]),
                      "traced sim counters differ: " + kind + " on " + workloads[i].name());
      }
    }
    out.traced_pass_s.push_back(seconds_since(t0));
    ++out.traced_passes;
  };

  const std::uint64_t start = now_ns();
  if (!p.traced) {
    while (static_cast<int>(out.untraced_pass_s.size()) < p.min_passes ||
           seconds_since(start) + 0.5 * median(out.untraced_pass_s) < p.seconds) {
      untraced_pass();
    }
  } else {
    while (out.traced_passes < 2 || seconds_since(start) < p.seconds) {
      untraced_pass();
      traced_pass();
    }
  }
  return out;
}

// ---------------------------------------------------------------- serving

struct ServeParams {
  std::size_t windows = 0;   ///< pre-segmented feature windows
  int setup_reps = 1;
  double warm_s = 0.0;       ///< before every measured phase, at the nominal rate
  double nominal_s = 0.0;
  double capacity_s = 0.0;
  double probe_s = 0.0;      ///< per rate tried by the search
  bool search = false;       ///< bisect for the highest rate meeting the limit
  bool traced = false;       ///< nominal phase split untraced/traced, capacity traced
  std::string artifact;      ///< where set-up writes the .dart
};

constexpr double kNominalRps = 50000.0;
constexpr double kCapacityRps = 1000000.0;
constexpr double kGridStep = 10000.0;
constexpr std::size_t kGridMax = 60;  ///< 10K .. 600K requests/s
constexpr double kLatencyLimitUs = 1000.0;

struct ServeOutcome {
  std::vector<double> setup_s, generate_s, segment_ns, load_ms;
  e2e::PhaseStats nominal, nominal_untraced, capacity;
  double max_rps = 0.0;
  std::vector<std::pair<double, bool>> probes;  ///< (rate, passed)
  e2e::Windows windows;
  std::shared_ptr<const tabular::TabularPredictor> model;  ///< loaded from the .dart
  std::uint64_t reference_hash = 0;
  std::size_t shards = 2;
};

serve::ServeConfig serve_config() {
  serve::ServeConfig c;
  c.shards = 2;
  c.queue_capacity = 2 * e2e::OpenLoopClient::kSlots;  // one session per shard: never full
  c.watchdog_ms = 0;  // no watchdog thread: client + 2 shards fit 4 cores
  c.pin_threads = true;  // shard i on core i; the client thread takes core 3
  return c;
}

constexpr const char* kCapacityNote = "completions/s under a 1M/s offer, best 0.1 s window";

/// A rate holds when the median over windows of the window p99 (dropped,
/// refused and shed requests count as misses) is within the limit, and no
/// more than one limit's worth of requests is still queued when sending
/// stops (no growing backlog).
bool meets_limit(const e2e::PhaseStats& s) {
  return s.p99_us <= kLatencyLimitUs &&
         static_cast<double>(s.backlog_at_end) <= s.offered_rps * kLatencyLimitUs / 1e6 + 16;
}

ServeOutcome run_serve(const ServeParams& p, std::uint64_t seed, const GoldenCheck& golden,
                       Checks& checks, Tracer* tracer) {
  ServeOutcome out;
  const nn::ModelConfig arch = core::paper_student_config();
  const trace::PreprocessOptions prep = core::default_preprocess();
  const serve::ServeConfig config = serve_config();
  e2e::References refs;
  std::unique_ptr<serve::PrefetchServer> server;

  for (int rep = 0; rep < p.setup_reps; ++rep) {
    server.reset();
    out.model.reset();
    const std::uint64_t t0 = now_ns();
    {
      const tabular::TabularPredictor built = bench::synthetic_predictor(arch);
      io::ArtifactMeta meta;
      meta.producer = "dart_e2e";
      meta.display_name = "DART";
      meta.latency_cycles = 100;
      meta.prep = prep;
      io::save_predictor_artifact(p.artifact, built, meta);
    }
    const std::uint64_t l0 = now_ns();
    out.model = core::load_dart_artifact(p.artifact).predictor;
    out.load_ms.push_back(static_cast<double>(now_ns() - l0) / 1e6);
    const std::uint64_t g0 = now_ns();
    const trace::MemoryTrace t = trace::generate(trace::App::kGcc, p.windows + prep.history, seed);
    out.generate_s.push_back(seconds_since(g0));
    e2e::Windows w;
    w.t_len = prep.history;
    for (std::size_t i = 0; i < p.windows; ++i) {
      for (std::size_t k = 0; k < prep.history; ++k) {
        w.blocks.push_back(trace::block_of(t[i + k].addr));
        w.pcs.push_back(t[i + k].pc);
      }
    }
    out.segment_ns.push_back(static_cast<double>(e2e::segment_windows(w, prep)) /
                             static_cast<double>(p.windows));
    out.windows = std::move(w);
    refs = e2e::compute_references(*out.model, out.windows);
    server = std::make_unique<serve::PrefetchServer>(p.artifact, config);
    out.setup_s.push_back(seconds_since(t0));
  }
  out.shards = server->num_shards();
  out.reference_hash = fnv1a(refs.probs.data(), refs.probs.size() * sizeof(float));
  // The references pin trace, segmentation, artifact round trip and query
  // together; the .dart bytes themselves vary with the optimizer's float
  // reassociation in k-means, the outputs do not.
  char body[128];
  std::snprintf(body, sizeof body, "{\"windows\": %zu, \"reference_hash\": %llu}",
                out.windows.count(), static_cast<unsigned long long>(out.reference_hash));
  golden.check("serve-open", body, checks);

  common::pin_current_thread(3);
  const double most = std::max(kNominalRps * p.nominal_s, kGridStep * kGridMax * p.probe_s);
  e2e::OpenLoopClient client(out.windows, refs, arch, static_cast<std::size_t>(most * 1.1) + 4096);
  std::uint64_t phase = 0;
  // Each phase draws its arrivals from its own stream of the seed, so the
  // schedule does not depend on how many requests earlier phases sent.
  auto run_phase = [&](serve::PrefetchServer& s, double rps, double secs, bool capacity,
                       Tracer* t, const std::string& label) {
    common::Rng rng(common::derive_seed(seed, ++phase));
    e2e::PhaseStats st = client.run(s, rps, secs, capacity, rng, t, label);
    checks.add(st.sent, st.sent - std::min(st.sent, st.completed + st.shed),
               "serve " + label + ": accepted requests never resolved");
    checks.add(0, st.id_mismatches, "serve " + label + ": trace-id mismatches");
    checks.add(st.checked, st.check_failures,
               "serve " + label + ": responses differ from forward_sample_into");
    checks.expect(st.drained, "serve " + label + ": in-flight requests did not drain");
    return st;
  };
  auto fresh_server = [&] {
    auto s = std::make_unique<serve::PrefetchServer>(p.artifact, config);
    run_phase(*s, kNominalRps, p.warm_s, false, nullptr, "warm-up");
    return s;
  };

  run_phase(*server, kNominalRps, p.warm_s, false, nullptr, "warm-up");
  if (p.traced) {
    out.nominal_untraced = run_phase(*server, kNominalRps, p.nominal_s / 2, false, nullptr, "nominal");
    server = fresh_server();
    out.nominal = run_phase(*server, kNominalRps, p.nominal_s / 2, false, tracer, "nominal");
  } else {
    out.nominal = run_phase(*server, kNominalRps, p.nominal_s, false, nullptr, "nominal");
  }
  for (const e2e::PhaseStats* n : {&out.nominal, &out.nominal_untraced}) {
    checks.add(n->sent + n->window_full + n->rejected, n->window_full + n->rejected + n->shed,
               "serve nominal: requests dropped, refused or shed at 50K/s");
  }

  server = fresh_server();
  out.capacity = run_phase(*server, kCapacityRps, p.capacity_s, true, tracer, "capacity");
  checks.add(out.capacity.sent, 0, "serve capacity");
  server.reset();

  if (p.search) {
    // Bisection over the 10K/s grid. The nominal phase decides 50K/s; no
    // rate above the measured capacity can hold, so the search starts below.
    std::size_t lo = meets_limit(out.nominal) ? 5 : 0;
    std::size_t hi = std::min<std::size_t>(
        kGridMax + 1, static_cast<std::size_t>(out.capacity.best_window_rps / kGridStep) + 1);
    hi = std::max(hi, lo + 1);
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      server = fresh_server();
      const e2e::PhaseStats st =
          run_phase(*server, kGridStep * mid, p.probe_s, false, nullptr, "search");
      server.reset();
      const bool ok = meets_limit(st);
      out.probes.emplace_back(kGridStep * mid, ok);
      (ok ? lo : hi) = mid;
    }
    out.max_rps = kGridStep * lo;
  }
  return out;
}

// --------------------------------------------------------------- reporting

/// Each cell (one prefetcher over one trace) is timed in every pass; its
/// fastest pass stands for it, since interference from other processes only
/// ever slows a pass down.
void report_sim_e2e(const SimOutcome& s, Report& r) {
  r.set("setup_s", median(s.setup_s), "s", spread(s.setup_s).note());
  std::vector<std::uint64_t> best_ns;
  double total_s = 0.0;
  for (const std::vector<double>& c : s.cell_s) {
    const double best = *std::min_element(c.begin(), c.end());
    total_s += best;
    best_ns.push_back(static_cast<std::uint64_t>(best * 1e9));
  }
  std::vector<double> pass_aps;
  for (double p : s.untraced_pass_s) pass_aps.push_back(s.accesses_per_pass * s.measured.size() / p);
  const std::string kinds = s.measured.size() > 1 ? "none+BO+ISB" : "DART";
  r.set("throughput_per_s", s.accesses_per_pass * s.measured.size() / total_s, "1/s",
        "simulated accesses per host second, " + kinds + ", fastest pass per cell; per pass: " +
            spread(pass_aps).note());
  const std::string cells = std::to_string(best_ns.size()) + " cells of " + kinds +
                            " x 9 traces, fastest of " + std::to_string(s.untraced_pass_s.size()) +
                            " passes each";
  r.set("latency_p50_us", e2e::to_us(e2e::quantile(best_ns, 0.50)), "us",
        "one cell's replay, " + cells);
  r.set("latency_p99_us", e2e::to_us(e2e::quantile(best_ns, 0.99)), "us",
        "slowest cell's replay, " + cells);
  r.extra("sim.ipc_speedup", s.ipc_speedup, "x", s.primary + " vs none, geomean over traces");
}

void report_serve_e2e(const ServeOutcome& s, Report& r) {
  r.set("setup_s", median(s.setup_s), "s", spread(s.setup_s).note());
  std::string probes;
  for (const auto& [rate, ok] : s.probes) {
    probes += std::to_string(static_cast<int>(rate / 1000)) + (ok ? "K ok " : "K fail ");
  }
  r.set("throughput_per_s", s.capacity.best_window_rps, "1/s", kCapacityNote);
  const std::string n = "client, from intended send, 50K/s open loop, best 0.25 s window of " +
                        std::to_string(s.nominal.sent) + " requests; median window ";
  r.set("latency_p50_us", s.nominal.best_p50_us, "us",
        n + std::to_string(s.nominal.p50_us) + ", whole phase " +
            std::to_string(s.nominal.whole_p50_us));
  r.set("latency_p99_us", s.nominal.best_p99_us, "us",
        n + std::to_string(s.nominal.p99_us) + ", whole phase " +
            std::to_string(s.nominal.whole_p99_us));
  r.extra("serve.max_rps", s.max_rps, "1/s",
          "highest 10K/s grid rate meeting p99 <= 1 ms without a growing backlog; probes: " +
              probes);
}

void report_sim_layers(const SimOutcome& s, Report& r) {
  r.set("trace.generate_s", median(s.generate_s), "s", "9 traces");
  const double overhead = median(s.traced_pass_s) / median(s.untraced_pass_s) - 1.0;
  r.set("trace.overhead_share", overhead, "ratio",
        "traced vs untraced pass time, " + std::to_string(s.traced_passes) + " pairs");
  const double passes = s.traced_passes;
  for (const std::string& kind : s.measured) {
    if (kind == "none") continue;
    const CallProbe& probe = s.probes.at(kind);
    const Tracer::Series* call = probe.tracer->find("prefetch.on_access." + kind);
    const Tracer::Series* run = probe.tracer->find("sim.run." + kind);
    if (call == nullptr || run == nullptr) continue;
    const bool primary = kind == s.primary;
    auto put = [&](const std::string& name, double v, const std::string& unit,
                   const std::string& note) {
      if (primary) r.set(name, v, unit, note + " (" + kind + ")");
      r.extra(name + "." + kind, v, unit, note);
    };
    put("prefetch.calls", probe.calls / passes, "count", "on_access calls per pass");
    put("prefetch.calls_with_output", probe.calls_with_output / passes, "count", "per pass");
    put("prefetch.candidates", probe.candidates / passes, "count", "per pass");
    put("prefetch.on_access_ns", call->mean_ns(), "ns", "mean per call");
    put("prefetch.on_access_p99_ns", static_cast<double>(call->quantile_ns(0.99)), "ns",
        "per call");
    put("prefetch.share", static_cast<double>(call->total_ns) / static_cast<double>(run->total_ns),
        "ratio", "of Simulator::run time");
    put("sim.self_ns_per_access",
        static_cast<double>(run->total_ns - std::min(run->total_ns, call->total_ns)) /
            (passes * static_cast<double>(s.accesses_per_pass)),
        "ns", "Simulator::run minus on_access, per trace access");
  }
  const sim::SimStats& t = s.totals.at(s.primary);
  r.set("sim.llc_accesses", t.llc_accesses, "count", s.primary + ", per pass");
  r.set("sim.llc_demand_misses", t.llc_demand_misses, "count", s.primary);
  r.set("sim.pf_issued", t.pf_issued, "count", s.primary);
  r.set("sim.pf_useful", t.pf_useful, "count", s.primary);
  r.set("sim.pf_late", t.pf_late, "count", s.primary);
  r.set("sim.pf_dropped", t.pf_dropped, "count", s.primary);
  r.set("sim.pf_accuracy", t.accuracy(), "ratio", "(useful+late)/issued, " + s.primary);
  r.set("sim.pf_coverage", t.coverage(), "ratio", "covered/(covered+misses), " + s.primary);
  r.set("sim.pf_drop_ratio",
        t.pf_issued + t.pf_dropped == 0
            ? 0.0
            : static_cast<double>(t.pf_dropped) / static_cast<double>(t.pf_issued + t.pf_dropped),
        "ratio", "dropped/(issued+dropped), " + s.primary);
  r.set("sim.ipc_speedup", s.ipc_speedup, "x",
        "IPC(" + s.primary + ")/IPC(none), geomean over traces; synthetic model");
}

void report_serve_layers(const ServeOutcome& s, double query_ns_b16, Report& r) {
  r.set("trace.generate_s", median(s.generate_s), "s", "serve window trace");
  r.set("trace.segment_ns", median(s.segment_ns), "ns", "per window, set-up segmentation");
  r.set("io.artifact_load_ms", median(s.load_ms), "ms", ".dart load, median of set-ups");
  if (s.nominal_untraced.sent > 0) {
    r.set("trace.overhead_share", s.nominal.p50_us / s.nominal_untraced.p50_us - 1.0, "ratio",
          "traced vs untraced client p50 at 50K/s");
  }
  for (const auto& [label, st] : {std::pair<std::string, const e2e::PhaseStats*>{"nominal", &s.nominal},
                                  {"capacity", &s.capacity}}) {
    const e2e::PhaseStats& ph = *st;
    auto put = [&](const std::string& name, double v, const std::string& unit,
                   const std::string& note = "") { r.set(name + "." + label, v, unit, note); };
    put("serve.submit_ns", ph.submit_mean_ns, "ns", "ClientSession::submit, mean");
    put("serve.poll_ns", ph.poll_mean_ns, "ns", "ClientSession::poll returning a response, mean");
    put("serve.gen_lag_us_p99", ph.lag_p99_us, "us", "send time minus intended");
    put("serve.window_full", ph.window_full, "count");
    put("serve.rejects", ph.rejected, "count");
    put("serve.shed", ph.shed, "count");
    std::uint64_t full = 0, depth_sum = 0, depth_max = 0, retries = 0;
    for (const auto& sh : ph.server.shards) {
      full += sh.full_batches;
      depth_sum += sh.queue_depth_sum;
      depth_max = std::max(depth_max, sh.queue_depth_max);
      retries += sh.completion_retries;
    }
    const double batches = std::max<double>(1.0, static_cast<double>(ph.server.batches));
    put("serve.avg_batch", ph.server.avg_batch, "count", "requests per micro-batch");
    put("serve.full_batch_ratio", full / batches, "ratio");
    put("serve.queue_depth_avg", depth_sum / batches, "count", "sampled per batch");
    put("serve.queue_depth_max", depth_max, "count");
    put("serve.completion_retries", retries, "count");
    put("serve.server_p50_us", ph.server.p50_ns / 1000.0, "us", "enqueue to completion push");
    put("serve.server_p99_us", ph.server.p99_ns / 1000.0, "us", "enqueue to completion push");
    put("serve.egress_us_p99", ph.from_submit_p99_us - ph.server.p99_ns / 1000.0, "us",
        "client p99 from submit minus server p99 (a log-bucket bound, so this can read < 0)");
    put("serve.shard_busy", ph.completed_per_s() * query_ns_b16 / (1e9 * static_cast<double>(s.shards)), "ratio",
        "estimate: completions/s x tabular.query_ns.b16 / shards");
  }
  r.set("serve.capacity_rps", s.capacity.best_window_rps, "1/s", kCapacityNote);
}

void report_replay(const e2e::ReplayResult& r1, const e2e::ReplayResult& r16,
                   double wrapper_ns, const e2e::LookupCount& lc, Report& r) {
  for (const e2e::ReplayResult* res : {&r1, &r16}) {
    const std::string sfx = ".b" + std::to_string(res->block);
    const std::string note = "per query, " + std::to_string(res->queries) + " queries";
    for (std::size_t s = 0; s < e2e::kStageCount; ++s) {
      r.set(std::string("tabular.") + e2e::kStageNames[s] + "_ns" + sfx, res->stage_ns[s], "ns",
            note);
    }
    r.set("tabular.encode_ns" + sfx, res->encode_ns, "ns", "linear kernels, encode_batch");
    r.set("tabular.aggregate_ns" + sfx, res->aggregate_ns, "ns", "linear kernels, the rest");
    r.set("tabular.attention_share" + sfx, res->attention_share(), "ratio",
          "attention / sum of stages");
    r.set("tabular.query_ns" + sfx, res->query_ns, "ns", "forward_block_into, untimed inside");
    r.extra("tabular.replay_ns" + sfx, res->replay_ns, "ns", "sum of timed stages");
  }
  r.set("tabular.forward_ns.b1", r1.query_ns + wrapper_ns, "ns",
        "Tensor forward() as the adapter calls it: query_ns.b1 + wrapper_ns");
  r.set("prefetch.wrapper_ns", wrapper_ns, "ns",
        "forward() minus forward_block_into, timed window by window");
  r.set("tabular.lookups_per_query", lc.lookups, "count", "computed from table shapes");
  r.set("tabular.table_bytes_per_query", lc.bytes, "bytes", "computed from table shapes");
}

/// Replays the windows kernel by kernel at n=1 and n=16 (must be bit-exact)
/// and times the Tensor forward() the DART adapter calls.
void run_replay(const tabular::TabularPredictor& model, e2e::Windows windows,
                std::size_t max_windows, Tracer& tracer, Checks& checks, Report& r,
                double* query_ns_b16) {
  if (windows.count() > max_windows) {
    windows.blocks.resize(max_windows * windows.t_len);
    windows.pcs.resize(max_windows * windows.t_len);
  }
  const double seg = static_cast<double>(e2e::segment_windows(windows, core::default_preprocess())) /
                     static_cast<double>(std::max<std::size_t>(1, windows.count()));
  r.set("trace.segment_ns", seg, "ns", "per window of T accesses");
  const e2e::StageClock clock;
  e2e::KernelReplay replay(model, clock, windows);
  const int reps = 12;
  double wrapper_ns = 0.0;
  const e2e::ReplayResult r1 = replay.run(1, reps, &tracer, &wrapper_ns);
  const e2e::ReplayResult r16 = replay.run(16, reps, &tracer);
  checks.add(r1.queries, r1.mismatches, "kernel replay differs from forward_block_into at n=1");
  checks.add(r16.queries, r16.mismatches, "kernel replay differs from forward_block_into at n=16");
  checks.expect(r1.queries > 0 && r16.queries > 0, "kernel replay had windows to replay");
  report_replay(r1, r16, wrapper_ns, e2e::count_lookups(model), r);
  *query_ns_b16 = r16.query_ns;
}

// ------------------------------------------------------------------- main

void usage() {
  std::fprintf(stderr,
               "usage: dart_e2e --workload sim-dart|sim-rule|serve-open [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR] [--golden FILE] "
               "[--write-golden]\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--write-golden") {
      o.write_golden = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--golden") {
      o.golden = v;
    } else {
      return false;
    }
  }
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) !=
             std::end(kWorkloads) &&
         o.seconds > 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "1e300";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Report& r, const Checks& c) {
  std::ostringstream os;
  os << "{\"correct\": " << (c.failed == 0 ? "true" : "false") << ", \"attempted\": "
     << c.attempted << ", \"failed\": " << c.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics()) {
    if (!m.in_json) continue;
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  // One process, at most 4 busy threads: the shared pool gets one worker
  // (set-up runs inline), serving adds exactly its 2 shard threads.
  setenv("DART_THREADS", "1", 1);
  // A fixed mmap threshold: large buffers freed between set-up repetitions
  // go back to the system, so peak RSS does not depend on malloc's
  // adaptive threshold.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const Sizes z = sizes_for(o.smoke);
  const double budget = o.smoke ? std::min(o.seconds, 1.5) : o.seconds;

  std::unique_ptr<Golden> golden_file;
  GoldenCheck golden;
  if (o.seed == 1 && !o.golden.empty()) {
    golden_file = std::make_unique<Golden>(o.golden);
    golden.golden = golden_file.get();
    golden.write = o.write_golden;
    golden.prefix = o.smoke ? "smoke/" : "";
  }

  Report report;
  Checks checks;
  Tracer tracer;
  const std::string artifact = o.out_dir + "/" + o.workload + ".dart";
  try {
    const bool is_sim = o.workload != "serve-open";
    SimParams sp;
    sp.dart = o.workload == "sim-dart";
    sp.accesses = z.accesses;
    sp.setup_reps = o.trace ? 1 : z.setup_reps;
    sp.min_passes = z.min_passes;
    sp.seconds = budget;
    sp.traced = o.trace;
    sp.capture = z.replay_windows;

    ServeParams vp;
    vp.windows = z.serve_windows;
    vp.setup_reps = o.trace ? 1 : z.setup_reps;
    vp.warm_s = z.warm_s;
    vp.nominal_s = 0.4 * budget;
    vp.capacity_s = 0.25 * budget;
    vp.probe_s = 0.07 * budget;
    vp.traced = o.trace;
    vp.search = !o.trace;
    vp.artifact = artifact;

    if (!o.trace) {
      if (is_sim) {
        report_sim_e2e(run_sim(sp, o.seed, golden, checks, nullptr), report);
      } else {
        report_serve_e2e(run_serve(vp, o.seed, golden, checks, nullptr), report);
      }
      report.set("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
    } else if (is_sim) {
      // The workload's own layers first; a short serving run then fills the
      // serve and io layers this workload never touches.
      SimOutcome s = run_sim(sp, o.seed, golden, checks, &tracer);
      report_sim_layers(s, report);
      ServeParams probe = vp;
      probe.windows = std::min<std::size_t>(vp.windows, 4096);
      probe.nominal_s = o.smoke ? 0.3 : 3.0;
      probe.capacity_s = o.smoke ? 0.2 : 1.0;
      ServeOutcome v = run_serve(probe, o.seed, GoldenCheck{}, checks, &tracer);
      double q16 = 0.0;
      run_replay(s.model ? *s.model : *v.model, s.windows, z.replay_windows, tracer, checks,
                 report, &q16);
      report_serve_layers(v, q16, report);
    } else {
      ServeOutcome v = run_serve(vp, o.seed, golden, checks, &tracer);
      double q16 = 0.0;
      run_replay(*v.model, v.windows, z.replay_windows, tracer, checks, report, &q16);
      report_serve_layers(v, q16, report);
      // A short DART simulation fills the prefetch and sim layers.
      SimParams probe = sp;
      probe.dart = true;
      probe.accesses = o.smoke ? 10000 : 100000;
      probe.seconds = o.smoke ? 0.5 : 3.0;
      probe.capture = 0;
      report_sim_layers(run_sim(probe, o.seed, GoldenCheck{}, checks, &tracer), report);
    }
  } catch (const std::exception& e) {
    checks.add(1, 1, std::string("exception: ") + e.what());
  }
  if (golden.write && !golden_file->save()) checks.add(1, 1, "cannot write " + o.golden);

  std::printf("== dart_e2e %s seed %llu, %s run%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? "traced" : "untraced",
              o.smoke ? " (smoke)" : "");
  for (const Metric& m : report.metrics()) {
    std::printf("  %-32s %16.6g %-6s %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.in_json ? "" : "[extra] ", m.note.c_str());
  }
  for (const std::string& e : checks.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  if (o.trace) {
    const std::string path = o.out_dir + "/trace-" + o.workload + ".jsonl";
    if (!tracer.write_jsonl(path, o.workload)) checks.add(1, 1, "cannot write " + path);
    std::printf("[trace] %s\n", path.c_str());
  }
  const std::string json = result_json(report, checks);
  const std::string saved = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                            (o.trace ? "-trace" : "") + (o.smoke ? "-smoke" : "") + ".json";
  if (FILE* f = std::fopen(saved.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"smoke\": %d, "
                    "\"seconds\": %s, \"result\": %s}\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                 o.smoke ? 1 : 0, json_number(o.seconds).c_str(), json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
  return checks.failed == 0 ? 0 : 1;
}
