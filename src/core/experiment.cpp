#include "core/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/env.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/artifact_cache.hpp"
#include "core/configs.hpp"
#include "core/result_store.hpp"
#include "sim/shard_replay.hpp"
#include "tabular/complexity.hpp"

namespace dart::core {

namespace {

/// Per-app shared state: the trained pipeline, the baseline run, and the
/// context lending artifacts to registry factories. The mutex serializes
/// lazy training and the DART-model cache across this app's cells; cells of
/// different apps never contend.
struct AppState {
  explicit AppState(trace::Workload w, const PipelineOptions& options)
      : workload(std::move(w)), pipe(workload, options) {}

  trace::Workload workload;
  Pipeline pipe;
  std::mutex mu;
  sim::PrefetcherContext ctx;
  double baseline_ipc = 0.0;
  std::map<std::string, sim::DartModel> dart_cache;
};

void build_context(AppState& state, const ExperimentSpec& spec) {
  AppState* s = &state;
  const PipelineOptions popts = spec.pipeline;
  state.ctx.prep = popts.prep;
  state.ctx.degree = popts.sim.max_degree;
  state.ctx.nn_trigger_sample = spec.nn_trigger_sample;
  state.ctx.artifact_dir = popts.artifact_dir;
  state.ctx.attention_model = [s] {
    std::lock_guard lock(s->mu);
    return s->pipe.teacher_shared();
  };
  state.ctx.lstm_model = [s] {
    std::lock_guard lock(s->mu);
    return s->pipe.lstm_baseline_shared();
  };
  // Three cache levels, checked in order: the in-memory per-app map, the
  // `.dart` artifact on disk (train-once across processes, keyed by the
  // producing-configuration hash so stale files retrain), then training.
  state.ctx.dart_model = [s, popts](const sim::DartModelRequest& request) {
    std::lock_guard lock(s->mu);
    // The quant mode joins the in-memory key (distinct served tables) but
    // NOT the artifact config key: artifacts stay float and are shared
    // across modes, with quantization applied after load.
    std::ostringstream key;
    key << normalize_dart_variant(request.variant) << '/' << request.table_k << '/'
        << request.table_c << '/' << tabular::quant_mode_name(request.quant);
    auto it = s->dart_cache.find(key.str());
    if (it != s->dart_cache.end()) return it->second;

    std::string path;
    if (!popts.artifact_dir.empty()) {
      path = dart_artifact_path(popts.artifact_dir, s->workload, popts, request);
      if (auto loaded = try_load_dart_artifact(
              path, dart_config_key(s->workload, popts, request), request.quant)) {
        return s->dart_cache.emplace(key.str(), std::move(*loaded)).first->second;
      }
    }
    TrainedDart trained = train_dart(s->pipe, request);
    if (!path.empty()) save_dart_artifact(path, s->workload, trained, "experiment_runner");
    trained.predictor.set_quant_mode(request.quant);
    sim::DartModel model;
    model.latency_cycles = trained.latency_cycles;
    model.display_name = trained.display_name;
    model.predictor =
        std::make_shared<tabular::TabularPredictor>(std::move(trained.predictor));
    return s->dart_cache.emplace(key.str(), std::move(model)).first->second;
  };
}

/// Runs every task, fanning out on the shared pool when possible. The first
/// task exception is rethrown after all tasks finished (cells already in
/// flight are never abandoned mid-simulation).
void run_tasks(const std::vector<std::function<void()>>& tasks, bool parallel) {
  auto& pool = common::ThreadPool::instance();
  if (!parallel || tasks.size() <= 1 || pool.size() <= 1 ||
      common::ThreadPool::inside_worker()) {
    for (const auto& task : tasks) task();
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = tasks.size();
  std::exception_ptr first_error;
  for (const auto& task : tasks) {
    pool.submit([&, task] {
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(mu);
      if (error && !first_error) first_error = error;
      if (--remaining == 0) cv.notify_all();
    });
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
  // Rethrow the original exception so failures surface with the same type
  // regardless of the parallel flag.
  if (first_error) std::rethrow_exception(first_error);
}

/// Outcome slot of one timed cell attempt. shared_ptr-owned so an abandoned
/// (timed-out) attempt thread can finish into it safely after the waiter
/// has moved on to the next attempt.
struct AttemptState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  ExperimentCell cell;
};

/// Runs `body` under an optional wall-clock timeout. Returns true when the
/// attempt finished (with *cell or *error filled); false on timeout, in
/// which case the still-running thread was handed to `zombies` for reaping
/// at sweep end and its eventual result is discarded.
bool run_attempt(const std::function<ExperimentCell()>& body, std::uint64_t timeout_ms,
                 std::vector<std::thread>* zombies, std::mutex* zombies_mu,
                 ExperimentCell* cell, std::exception_ptr* error) {
  if (timeout_ms == 0) {
    try {
      *cell = body();
    } catch (...) {
      *error = std::current_exception();
    }
    return true;
  }
  // A dedicated thread per timed attempt: the simulator has no cancellation
  // points, so the only sound timeout is to abandon the attempt and let its
  // thread run to completion off to the side.
  auto at = std::make_shared<AttemptState>();
  std::thread th([at, body] {
    ExperimentCell c;
    std::exception_ptr e;
    try {
      c = body();
    } catch (...) {
      e = std::current_exception();
    }
    std::lock_guard lock(at->mu);
    at->cell = std::move(c);
    at->error = e;
    at->done = true;
    at->cv.notify_all();
  });
  std::unique_lock lock(at->mu);
  const bool finished =
      at->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] { return at->done; });
  if (finished) {
    *cell = std::move(at->cell);
    *error = at->error;
    lock.unlock();
    th.join();
    return true;
  }
  lock.unlock();
  std::lock_guard z(*zombies_mu);
  zombies->push_back(std::move(th));
  return false;
}

// Minimal CSV field handling: quote fields containing commas (spec strings
// do), matching common::TablePrinter's convention.
std::string csv_quote(const std::string& field) {
  if (field.find(',') == std::string::npos) return field;
  return "\"" + field + "\"";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

// --------------------------------------------------------------- CellStatus

const char* cell_status_name(CellStatus status) {
  switch (status) {
    case CellStatus::kDone:
      return "done";
    case CellStatus::kFailed:
      return "failed";
    case CellStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

SweepOptions SweepOptions::from_env() {
  SweepOptions o;
  o.store_dir = common::env_string("DART_SWEEP_DIR", "");
  o.cell_timeout_ms = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, common::env_int("DART_SWEEP_TIMEOUT_MS", 0)));
  o.cell_retries = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, common::env_int("DART_SWEEP_RETRIES", 2)));
  o.backoff_ms = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, common::env_int("DART_SWEEP_BACKOFF_MS", 10)));
  o.trace_shards = static_cast<std::size_t>(
      std::max<std::int64_t>(1, common::env_int("DART_SWEEP_SHARDS", 1)));
  const std::int64_t warmup = common::env_int("DART_SWEEP_WARMUP", -1);
  o.shard_warmup = warmup < 0 ? sim::kFullWarmup : static_cast<std::size_t>(warmup);
  return o;
}

// ------------------------------------------------------------ ExperimentSpec

ExperimentSpec ExperimentSpec::bench_defaults() {
  ExperimentSpec spec;
  for (trace::App app : env_apps()) spec.workloads.push_back(trace::app_name(app));
  for (std::string& w : env_workloads()) spec.workloads.push_back(std::move(w));
  const std::string pfs = common::env_string("DART_PREFETCHERS", "");
  if (!pfs.empty()) spec.prefetchers = sim::split_spec_list(pfs);
  return spec;
}

std::vector<trace::App> ExperimentSpec::env_apps() {
  std::vector<trace::App> apps;
  for (const auto& name : common::env_list("DART_APPS")) {
    apps.push_back(trace::app_from_name(name));
  }
  return apps;
}

std::vector<std::string> ExperimentSpec::env_workloads() {
  // Validate up front (fail fast on typos) but carry the spec strings.
  std::vector<std::string> specs;
  for (const trace::Workload& w :
       trace::parse_workload_list(common::env_string("DART_WORKLOADS", ""))) {
    specs.push_back(w.spec());
  }
  return specs;
}

// ---------------------------------------------------------- ExperimentResult

std::vector<std::string> ExperimentResult::apps() const {
  std::vector<std::string> out;
  for (const auto& c : cells) {
    if (std::find(out.begin(), out.end(), c.app) == out.end()) out.push_back(c.app);
  }
  return out;
}

std::vector<std::string> ExperimentResult::prefetchers() const {
  std::vector<std::string> out;
  for (const auto& c : cells) {
    if (std::find(out.begin(), out.end(), c.prefetcher) == out.end()) {
      out.push_back(c.prefetcher);
    }
  }
  return out;
}

const ExperimentCell* ExperimentResult::find(const std::string& prefetcher,
                                             const std::string& app) const {
  for (const auto& c : cells) {
    if (c.prefetcher == prefetcher && c.app == app) return &c;
  }
  return nullptr;
}

std::vector<PrefetcherSummary> ExperimentResult::summaries() const {
  std::vector<PrefetcherSummary> out;
  std::vector<std::size_t> counts;
  for (const auto& c : cells) {
    std::size_t i = 0;
    while (i < out.size() && out[i].prefetcher != c.prefetcher) ++i;
    if (i == out.size()) {
      PrefetcherSummary s;
      s.prefetcher = c.prefetcher;
      out.push_back(s);
      counts.push_back(0);
    }
    PrefetcherSummary& s = out[i];
    s.mean_accuracy += c.stats.accuracy();
    s.mean_coverage += c.stats.coverage();
    s.mean_ipc_improvement += c.ipc_improvement;
    s.storage_bytes = std::max(s.storage_bytes, c.storage_bytes);
    s.latency_cycles = c.latency_cycles;
    ++counts[i];
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (counts[i] == 0) continue;
    const double n = static_cast<double>(counts[i]);
    out[i].mean_accuracy /= n;
    out[i].mean_coverage /= n;
    out[i].mean_ipc_improvement /= n;
  }
  return out;
}

std::size_t ExperimentResult::count(CellStatus status) const {
  std::size_t n = 0;
  for (const auto& c : cells) {
    if (c.status == status) ++n;
  }
  return n;
}

bool ExperimentResult::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "spec,prefetcher,app,baseline_ipc,ipc_improvement,pf_issued,pf_useful,pf_late,"
         "pf_dropped,llc_accesses,llc_hits,llc_demand_misses,instructions,cycles,"
         "storage_bytes,latency_cycles\n";
  out << std::setprecision(12);
  for (const auto& c : cells) {
    out << csv_quote(c.spec) << ',' << csv_quote(c.prefetcher) << ',' << c.app << ','
        << c.baseline_ipc << ',' << c.ipc_improvement << ',' << c.stats.pf_issued << ','
        << c.stats.pf_useful << ',' << c.stats.pf_late << ',' << c.stats.pf_dropped << ','
        << c.stats.llc_accesses << ',' << c.stats.llc_hits << ','
        << c.stats.llc_demand_misses << ',' << c.stats.instructions << ',' << c.stats.cycles
        << ',' << c.storage_bytes << ',' << c.latency_cycles << '\n';
  }
  return static_cast<bool>(out);
}

bool ExperimentResult::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(12) << "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ExperimentCell& c = cells[i];
    out << "  {\"spec\": \"" << json_escape(c.spec) << "\", \"prefetcher\": \""
        << json_escape(c.prefetcher) << "\", \"app\": \"" << json_escape(c.app)
        << "\", \"baseline_ipc\": " << c.baseline_ipc
        << ", \"ipc_improvement\": " << c.ipc_improvement
        << ", \"accuracy\": " << c.stats.accuracy()
        << ", \"coverage\": " << c.stats.coverage() << ", \"ipc\": " << c.stats.ipc()
        << ", \"pf_issued\": " << c.stats.pf_issued << ", \"pf_useful\": " << c.stats.pf_useful
        << ", \"pf_late\": " << c.stats.pf_late
        << ", \"llc_demand_misses\": " << c.stats.llc_demand_misses
        << ", \"instructions\": " << c.stats.instructions << ", \"cycles\": " << c.stats.cycles
        << ", \"storage_bytes\": " << c.storage_bytes
        << ", \"latency_cycles\": " << c.latency_cycles << "}"
        << (i + 1 < cells.size() ? "," : "") << '\n';
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------- ExperimentRunner

ExperimentRunner::ExperimentRunner(ExperimentSpec spec) : spec_(std::move(spec)) {}

ExperimentResult ExperimentRunner::run() {
  // The grid's rows: the parsed workload specs, or all eight Table IV apps
  // when the list is empty.
  std::vector<trace::Workload> workloads;
  for (const std::string& spec_text : spec_.workloads) {
    workloads.push_back(trace::Workload::parse(spec_text));
  }
  if (workloads.empty()) {
    workloads.assign(trace::all_apps().begin(), trace::all_apps().end());
  }
  // Fail fast on unknown prefetcher names, before any training starts.
  for (const auto& spec_text : spec_.prefetchers) {
    sim::PrefetcherRegistry::instance().validate(spec_text);
  }

  const SweepOptions& sweep = spec_.sweep;
  // The durable result store (DESIGN.md §13): opened before any work, so a
  // resumed sweep skips every already-committed cell below.
  std::unique_ptr<ResultStore> store;
  if (!sweep.store_dir.empty()) store = std::make_unique<ResultStore>(sweep.store_dir);

  // Cell identity: the pipeline configuration hash, the sweep replay plan
  // (NN sampling, shard count, warmup), the DART_QUANT default the `dart`
  // specs inherit, and the simulator's SimStats-semantics generation — a
  // cell is only reused when it would provably reproduce the stored numbers.
  auto config_of = [&](const trace::Workload& w) {
    std::ostringstream os;
    os << pipeline_cache_key(w, spec_.pipeline) << "/nn" << spec_.nn_trigger_sample << "/sh"
       << sweep.trace_shards << "/w";
    if (sweep.trace_shards <= 1 || sweep.shard_warmup == sim::kFullWarmup) {
      os << "full";
    } else {
      os << sweep.shard_warmup;
    }
    os << "/q" << tabular::quant_mode_name(quant_mode_from_env()) << "/e"
       << sim::kEngineGeneration;
    return os.str();
  };

  const std::size_t npf = spec_.prefetchers.size();
  ExperimentResult result;
  result.cells.assign(workloads.size() * npf, ExperimentCell{});
  std::vector<std::uint64_t> keys(result.cells.size(), 0);
  std::vector<char> pending(result.cells.size(), 1);
  if (store) {
    for (std::size_t a = 0; a < workloads.size(); ++a) {
      const std::string config = config_of(workloads[a]);
      for (std::size_t p = 0; p < npf; ++p) {
        const std::size_t i = a * npf + p;
        keys[i] = sweep_cell_key(workloads[a].spec(), spec_.prefetchers[p], config);
        CellRecord rec;
        // Only completed records are reused; quarantined cells get a fresh
        // chance on every resume (their record is superseded on success).
        if (store->find(keys[i], &rec) && rec.status == CellStatus::kDone) {
          result.cells[i] = rec.cell;
          result.cells[i].status = CellStatus::kSkipped;
          pending[i] = 0;
        }
      }
    }
  }

  std::vector<std::unique_ptr<AppState>> states;
  states.reserve(workloads.size());
  for (const trace::Workload& w : workloads) {
    states.push_back(std::make_unique<AppState>(w, spec_.pipeline));
    build_context(*states.back(), spec_);
  }

  // Phase 1: per-app preparation (trace generation + dataset + baseline
  // simulation) in parallel across apps — but only for apps that still
  // have pending cells; a fully-resumed app costs nothing.
  std::vector<std::function<void()>> prep_tasks;
  for (std::size_t a = 0; a < states.size(); ++a) {
    const bool needed = std::any_of(pending.begin() + static_cast<std::ptrdiff_t>(a * npf),
                                    pending.begin() + static_cast<std::ptrdiff_t>((a + 1) * npf),
                                    [](char x) { return x != 0; });
    if (!needed) continue;
    AppState* state = states[a].get();
    prep_tasks.push_back([state, this] {
      state->pipe.prepare();
      sim::Simulator simulator(spec_.pipeline.sim);
      state->baseline_ipc = simulator
                                .run(state->pipe.raw_trace(), nullptr,
                                     sim::thread_local_sim_workspace())
                                .ipc();
    });
  }
  run_tasks(prep_tasks, spec_.parallel);

  // Phase 2: every pending (app, prefetcher) cell is an independent pool
  // task wrapped in the retry/timeout/quarantine harness. Heavy shared
  // artifacts (teacher, LSTM, DART tables) are trained lazily under the
  // app's context lock the first time a cell needs them.
  std::mutex zombies_mu;
  std::vector<std::thread> zombies;  // abandoned timed-out attempt threads
  std::vector<std::function<void()>> cell_tasks;
  std::size_t prepped_apps = 0;
  for (std::size_t a = 0; a < states.size(); ++a) {
    bool app_has_cells = false;
    for (std::size_t p = 0; p < npf; ++p) {
      const std::size_t i = a * npf + p;
      if (!pending[i]) continue;
      app_has_cells = true;
      AppState* state = states[a].get();
      ExperimentCell* cell = &result.cells[i];
      const std::uint64_t key = keys[i];
      const std::string spec_text = spec_.prefetchers[p];
      // The attempt body: everything that may fail or hang, producing a
      // finished cell. Runs inline or on a timed attempt thread.
      auto simulate = [state, spec_text, sweep, this]() {
        const common::CellFault fault =
            common::fault_injector().on_cell(state->workload.name() + "|" + spec_text);
        if (fault.delay_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
        }
        if (fault.fail) {
          throw std::runtime_error("injected fail-cell fault for " + spec_text);
        }
        std::unique_ptr<sim::Prefetcher> pf = sim::make_prefetcher(spec_text, state->ctx);
        // NN adapters drive a model shared with this app's other cells and
        // mutate it during forward: serialize their simulations on the app
        // lock (cells of other apps and rule-based cells stay concurrent).
        std::unique_lock<std::mutex> model_lock;
        if (pf->shares_mutable_model()) model_lock = std::unique_lock(state->mu);
        sim::SimStats stats;
        if (sweep.trace_shards > 1 && !pf->shares_mutable_model()) {
          // Sharded replay with pinned deterministic merge. Mutable-model
          // prefetchers are excluded: per-shard instances would contend on
          // the one shared model, which is neither faster nor meaningful.
          sim::ShardReplayOptions shard_opts;
          shard_opts.shards = sweep.trace_shards;
          shard_opts.warmup = sweep.shard_warmup;
          stats = sim::run_sharded(
                      spec_.pipeline.sim, state->pipe.raw_trace(),
                      [state, spec_text] { return sim::make_prefetcher(spec_text, state->ctx); },
                      shard_opts)
                      .merged;
        } else {
          sim::Simulator simulator(spec_.pipeline.sim);
          // Every cell replays through its worker thread's reusable
          // workspace: after the pool warms up, a sweep of any size
          // performs zero steady-state replay allocations.
          stats = simulator.run(state->pipe.raw_trace(), pf.get(),
                                sim::thread_local_sim_workspace());
        }
        ExperimentCell out;
        out.spec = spec_text;
        out.prefetcher = pf->name();
        out.app = state->workload.name();
        out.stats = stats;
        out.baseline_ipc = state->baseline_ipc;
        out.ipc_improvement = state->baseline_ipc > 0.0
                                  ? (stats.ipc() - state->baseline_ipc) / state->baseline_ipc
                                  : 0.0;
        out.storage_bytes = pf->storage_bytes();
        out.latency_cycles = pf->prediction_latency();
        return out;
      };
      cell_tasks.push_back([simulate, state, cell, key, spec_text, sweep, &zombies, &zombies_mu,
                            &store] {
        const std::uint32_t max_attempts = sweep.cell_retries + 1;
        std::string last_error;
        std::uint32_t attempts = 0;
        bool ok = false;
        for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
          ++attempts;
          ExperimentCell out;
          std::exception_ptr err;
          const bool finished =
              run_attempt(simulate, sweep.cell_timeout_ms, &zombies, &zombies_mu, &out, &err);
          if (finished && !err) {
            *cell = std::move(out);
            ok = true;
            break;
          }
          if (err) {
            try {
              std::rethrow_exception(err);
            } catch (const SweepCrash&) {
              throw;  // a crash is never a cell failure: propagate, no retry
            } catch (const std::exception& e) {
              last_error = e.what();
            } catch (...) {
              last_error = "unknown cell error";
            }
          } else {
            last_error = "cell attempt timed out after " +
                         std::to_string(sweep.cell_timeout_ms) + " ms";
          }
          if (attempt < max_attempts && sweep.backoff_ms > 0) {
            // Doubling backoff: transient failures (exhausted file handles,
            // memory pressure) get breathing room before the retry.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sweep.backoff_ms << (attempt - 1)));
          }
        }
        if (ok) {
          cell->status = CellStatus::kDone;
          cell->error.clear();
        } else {
          // Quarantine: the cell keeps its identity (so reports still show
          // the row) but zero counters, and the sweep carries on.
          cell->spec = spec_text;
          cell->prefetcher = spec_text;
          cell->app = state->workload.name();
          cell->baseline_ipc = state->baseline_ipc;
          cell->status = CellStatus::kFailed;
          cell->error = last_error;
        }
        cell->attempts = attempts;
        if (store) {
          CellRecord rec;
          rec.key = key;
          rec.status = cell->status;
          rec.attempts = attempts;
          rec.error = cell->error;
          rec.cell = *cell;
          store->append(rec);  // durable commit; may throw SweepCrash
        }
      });
    }
    if (app_has_cells) ++prepped_apps;
  }
  // Single-app grids run cells inline: their heavy cost is model training,
  // which serializes on the one app lock anyway, and training's nested
  // parallel_for only fans out when not already inside a pool worker.
  std::exception_ptr sweep_error;
  try {
    run_tasks(cell_tasks, spec_.parallel && prepped_apps > 1);
  } catch (...) {
    sweep_error = std::current_exception();
  }
  // Reap abandoned attempt threads before anything they reference (the app
  // states, the store) leaves scope — and before TSan would flag them.
  {
    std::lock_guard z(zombies_mu);
    for (std::thread& t : zombies) t.join();
    zombies.clear();
  }
  if (sweep_error) std::rethrow_exception(sweep_error);

  // Distinct specs can share a display name (e.g. two unlabeled stride
  // configurations). Reporting groups by display name, so fall back to the
  // spec text for colliding names rather than silently merging their cells.
  std::map<std::string, std::set<std::string>> specs_by_name;
  for (const auto& c : result.cells) specs_by_name[c.prefetcher].insert(c.spec);
  for (auto& c : result.cells) {
    if (specs_by_name[c.prefetcher].size() > 1) c.prefetcher = c.spec;
  }
  return result;
}

}  // namespace dart::core
