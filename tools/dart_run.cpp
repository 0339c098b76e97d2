// dart_run — serve a trained `.dart` artifact with zero training
// dependency: cold-start the table hierarchy from disk in milliseconds,
// then inspect it, micro-bench its query path, or deploy it as an LLC
// prefetcher in the timing simulator.
//
//   dart_run ARTIFACT.dart [--info] [--bench] [--simulate] [--serve]
//            [--app NAME] [--workload SPEC] [--queries N] [--streams N]
//            [--requests N] [--shards N] [--batch-cap N]
//
// Modes (default --info; several can be combined in one invocation):
//   --info      print the artifact header: architecture, tables, storage,
//               latency, content hash, producing configuration key.
//   --bench     regenerate the app's access stream (deterministic, no
//               training), build the segmented inference inputs, and
//               measure batched query throughput + F1 vs the trace labels.
//   --simulate  run the timing simulator with the artifact as the LLC
//               prefetcher vs a no-prefetcher baseline (Fig. 14's metric).
//   --serve     stand up the prefetch-as-a-service engine (DESIGN.md §9)
//               on the artifact and drive it with open-loop Poisson
//               arrivals from client streams replaying the artifact's app;
//               prints the offered and achieved rate, client and server
//               latency quantiles, misses, and per-shard counters. Exits 1
//               when a request is lost or mis-routed, when none completes,
//               or, with no fault, deadline or watermark set, when any is
//               missed or shed.
//
// `--app`/`--workload` override the workload recorded in the artifact
// (e.g. to measure how a model trained on one workload generalizes to
// another); both accept the full trace/workloads.hpp spec grammar — app
// names, "trace:zipfian,theta=0.99,footprint=64M,seed=42", "ycsb-b", or
// "tracefile:path=trace.dtrc". `--queries`
// caps the bench query count (default DART_BENCH_QUERIES or 4096).
// `--streams`/`--requests` shape the serve client load (DART_SERVE_RATE
// sets its offered rate) and `--shards`/`--batch-cap` the serve engine,
// overriding the corresponding DART_SERVE_* environment
// knobs; a value past its bound (serve/loadgen.hpp, serve/server.hpp) is
// rejected before any thread starts.
// DART_FAULT=<spec> arms the deterministic fault injector for the serve
// run (DESIGN.md §11), e.g. DART_FAULT="slow-shard:shard=0,us=2000".
//
// Every N is a whole unsigned decimal token. Exit codes: 0 = done, 2 = bad
// flag, environment knob, spec or DART_FAULT value (refused by name),
// 1 = any other failure.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/timer.hpp"
#include "nn/metrics.hpp"
#include "core/pipeline.hpp"
#include "io/artifact.hpp"
#include "prefetch/nn_prefetchers.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "trace/workloads.hpp"
#include "trace/preprocess.hpp"

using namespace dart;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s ARTIFACT.dart [--info] [--bench] [--simulate] [--serve] "
               "[--app NAME] [--workload SPEC] [--queries N] [--streams N] [--requests N] "
               "[--shards N] [--batch-cap N]\n",
               argv0);
  return 2;
}

void print_info(const std::string& path, const io::ArtifactInfo& info,
                const tabular::TabularPredictor& predictor) {
  const nn::ModelConfig& a = info.arch;
  std::printf("artifact   : %s (format v%u, content hash %016llx)\n", path.c_str(),
              info.format_version, static_cast<unsigned long long>(info.content_hash));
  std::printf("producer   : %s%s%s\n", info.meta.producer.c_str(),
              info.meta.app.empty() ? "" : ", app ", info.meta.app.c_str());
  std::printf("model      : %s — L=%zu D=%zu H=%zu T=%zu DF=%zu DO=%zu\n",
              info.meta.display_name.empty() ? "(unnamed)" : info.meta.display_name.c_str(),
              a.layers, a.dim, a.heads, a.seq_len, a.ffn_dim, a.out_dim);
  std::printf("tables     : K=%zu C=%zu (attention class), %.1f KB total storage\n",
              info.meta.tables.attention.k, info.meta.tables.attention.c,
              predictor.storage_bytes() / 1024.0);
  std::printf("latency    : %llu cycles (Eq. 22 cost model)\n",
              static_cast<unsigned long long>(info.meta.latency_cycles));
  std::printf("config key : %s\n",
              info.meta.config_key.empty() ? "(none)" : info.meta.config_key.c_str());
}

/// Deterministically rebuilds the workload's dataset from the artifact's
/// recorded preprocessing geometry — trace generation + segmentation only,
/// no model training anywhere on this path.
nn::Dataset build_eval_dataset(const trace::Workload& workload,
                               const trace::PreprocessOptions& prep) {
  core::PipelineOptions options = core::PipelineOptions::bench_defaults();
  options.prep = prep;
  if (options.prep.max_samples == 0) options.prep.max_samples = 6000;
  core::Pipeline pipe(workload, options);
  return pipe.test_set();
}

int run_bench(const trace::Workload& workload, const io::ArtifactInfo& info,
              const tabular::TabularPredictor& predictor, std::size_t queries) {
  nn::Dataset data = build_eval_dataset(workload, info.meta.prep);
  if (data.size() == 0) {
    std::fprintf(stderr, "bench: empty evaluation dataset for %s\n",
                 workload.name().c_str());
    return 1;
  }
  const std::size_t n = std::min(queries, data.size());
  const nn::Dataset probe = data.slice(0, n);

  common::Stopwatch timer;
  const nn::Tensor probs = predictor.forward(probe.addr, probe.pc);
  const double ms = timer.elapsed_ms();
  const nn::F1Result f1 = nn::f1_score_from_probs(probs, probe.labels);

  std::printf("bench      : %zu queries on %s in %.2f ms (%.0f q/s, batched)\n", n,
              workload.name().c_str(), ms, 1000.0 * static_cast<double>(n) / ms);
  std::printf("accuracy   : F1 %.4f (precision %.4f, recall %.4f) vs trace labels\n", f1.f1,
              f1.precision, f1.recall);
  return 0;
}

int run_simulate(const trace::Workload& workload, const io::ArtifactInfo& info,
                 std::shared_ptr<const tabular::TabularPredictor> predictor) {
  core::PipelineOptions options = core::PipelineOptions::bench_defaults();
  const trace::MemoryTrace trace =
      workload.generate(options.raw_accesses, common::derive_seed(options.seed, 1));

  // One reusable workspace serves both replays (second run allocates
  // nothing).
  sim::SimWorkspace workspace;
  sim::Simulator baseline_sim(options.sim);
  const sim::SimStats baseline = baseline_sim.run(trace, nullptr, workspace);

  prefetch::NnAdapterOptions o;
  o.prep = info.meta.prep;
  o.degree = options.sim.max_degree;
  o.latency = static_cast<std::size_t>(info.meta.latency_cycles);
  prefetch::DartPrefetcher prefetcher(
      std::move(predictor), o,
      info.meta.display_name.empty() ? "DART" : info.meta.display_name);

  sim::Simulator sim(options.sim);
  const sim::SimStats stats = sim.run(trace, &prefetcher, workspace);
  const double improvement =
      baseline.ipc() > 0.0 ? (stats.ipc() - baseline.ipc()) / baseline.ipc() : 0.0;

  std::printf("simulate   : %s on %s, %llu accesses\n", prefetcher.name().c_str(),
              workload.name().c_str(),
              static_cast<unsigned long long>(stats.llc_accesses));
  std::printf("  baseline IPC %.3f -> %.3f (%+.1f%%)\n", baseline.ipc(), stats.ipc(),
              100.0 * improvement);
  std::printf("  accuracy %.1f%%, coverage %.1f%%, %llu prefetches issued\n",
              100.0 * stats.accuracy(), 100.0 * stats.coverage(),
              static_cast<unsigned long long>(stats.pf_issued));
  return 0;
}

/// Serves the artifact through the sharded engine under open-loop client
/// load (serve::run_client_load), replaying `workload` on every stream.
/// Engine and load shape come from the DART_SERVE_* environment, already
/// overridden by the CLI flags in main.
int run_serve(const trace::Workload& workload, const io::ArtifactInfo& info,
              std::shared_ptr<const tabular::TabularPredictor> predictor,
              const serve::ServeConfig& config, serve::LoadOptions load) {
  load.prep = info.meta.prep;
  // DART_SERVE_WORKLOADS (already parsed into `load` by from_env) wins;
  // otherwise every stream replays the workload the artifact was trained on.
  if (load.workloads.empty()) load.workloads = {workload};

  // DART_FAULT arms the deterministic fault injector (common/fault.hpp) for
  // this serve run — the operator-facing way to rehearse overload and
  // reload failures against a real artifact.
  const std::string fault_spec = common::env_string("DART_FAULT", "");
  if (!fault_spec.empty()) {
    common::fault_injector().install(fault_spec);
    std::printf("faults     : %s\n", fault_spec.c_str());
  }

  serve::PrefetchServer server(std::move(predictor), config);
  const serve::LoadReport report = serve::run_client_load(server, load);
  if (!fault_spec.empty()) common::fault_injector().clear();

  std::string load_names;
  for (const trace::Workload& w : load.workloads) {
    if (!load_names.empty()) load_names += ';';
    load_names += w.name();
  }
  std::printf("serve      : %zu streams x %zu requests on %s over %zu shard(s)\n",
              report.streams, load.requests_per_stream, load_names.c_str(),
              server.num_shards());
  std::printf("  rate       offered %.0f/s, achieved %.0f predictions/sec\n", load.rate_per_s,
              report.predictions_per_sec);
  std::printf("  client     p50 %.1f us, p99 %.1f us (from intended send, misses included)\n",
              report.p50_us, report.p99_us);
  std::printf("  server     p50 %.1f us, p99 %.1f us (enqueue→completion)\n",
              report.server.p50_ns / 1000.0, report.server.p99_ns / 1000.0);
  std::printf("  %llu completed + %llu shed / %llu submitted, %llu missed, %llu id mismatches\n",
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(report.shed),
              static_cast<unsigned long long>(report.submitted),
              static_cast<unsigned long long>(report.missed),
              static_cast<unsigned long long>(report.id_mismatches));
  std::printf("  %.1f avg batch occupancy over %llu micro-batches\n", report.server.avg_batch,
              static_cast<unsigned long long>(report.server.batches));
  if (report.server.deadline_missed != 0 || report.server.watchdog_restarts != 0 ||
      report.server.reload_rejected != 0 || report.server.admission_rejected != 0) {
    std::printf("  robustness: %llu deadline misses, %llu admission rejects, "
                "%llu watchdog restarts, %llu reloads rejected\n",
                static_cast<unsigned long long>(report.server.deadline_missed),
                static_cast<unsigned long long>(report.server.admission_rejected),
                static_cast<unsigned long long>(report.server.watchdog_restarts),
                static_cast<unsigned long long>(report.server.reload_rejected));
  }
  for (std::size_t i = 0; i < report.server.shards.size(); ++i) {
    const serve::ShardStatsSnapshot& s = report.server.shards[i];
    std::printf("  shard %zu: %llu requests, %llu batches, max queue depth %llu, %s\n", i,
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.queue_depth_max),
                serve::shard_state_name(s.state));
  }
  if (report.completed + report.shed != report.submitted || report.id_mismatches != 0) {
    std::fprintf(stderr, "serve: lost or mis-routed responses\n");
    return 1;
  }
  if (report.completed == 0) {
    std::fprintf(stderr, "serve: no request completed\n");
    return 1;
  }
  // Without an armed fault, a deadline or a watermark nothing licenses the
  // server to refuse or shed a request at this load.
  const bool may_drop = !fault_spec.empty() || config.deadline_us != 0 || config.watermark_hi != 0;
  if (!may_drop && (report.missed != 0 || report.shed != 0)) {
    std::fprintf(stderr, "serve: missed or shed requests with no fault, deadline or watermark\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  common::warn_unknown_knobs();
  if (argc < 2) return usage(argv[0]);
  const std::string path = argv[1];
  bool info_mode = false, bench_mode = false, simulate_mode = false, serve_mode = false;
  std::string app_override;
  std::size_t queries = common::env_uint("DART_BENCH_QUERIES", 4096);
  serve::ServeConfig serve_config = serve::ServeConfig::from_env();
  serve::LoadOptions serve_load = serve::LoadOptions::from_env();

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&] { return common::flag_value(argc, argv, i); };
    if (arg == "--info") {
      info_mode = true;
    } else if (arg == "--bench") {
      bench_mode = true;
    } else if (arg == "--simulate") {
      simulate_mode = true;
    } else if (arg == "--serve") {
      serve_mode = true;
    } else if (arg == "--app" || arg == "--workload") {
      app_override = value();
    } else if (arg == "--queries") {
      queries = common::parse_uint(arg, value());
    } else if (arg == "--streams") {
      serve_load.streams = common::parse_uint(arg, value());
    } else if (arg == "--requests") {
      serve_load.requests_per_stream = common::parse_uint(arg, value());
    } else if (arg == "--shards") {
      serve_config.shards = common::parse_uint(arg, value());
    } else if (arg == "--batch-cap") {
      serve_config.batch_cap = common::parse_uint(arg, value());
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (!info_mode && !bench_mode && !simulate_mode && !serve_mode) info_mode = true;

  // The only load in the binary: everything below serves from memory.
  common::Stopwatch load_timer;
  io::ArtifactInfo info;
  const auto predictor = std::make_shared<const tabular::TabularPredictor>(
      io::load_predictor_artifact(path, &info));
  const double load_ms = load_timer.elapsed_ms();

  if (info_mode) {
    print_info(path, info, *predictor);
    std::printf("cold start : loaded and validated in %.1f ms\n", load_ms);
  }
  if (bench_mode || simulate_mode || serve_mode) {
    // The artifact's meta.app field stores the producing workload's
    // canonical spec; Workload::parse accepts app names and spec strings
    // alike, so old artifacts keep working.
    const std::string spec_text = !app_override.empty() ? app_override : info.meta.app;
    if (spec_text.empty()) {
      std::fprintf(stderr, "artifact records no workload; pass --workload SPEC\n");
      return 2;
    }
    const trace::Workload workload = trace::Workload::parse(spec_text);
    if (bench_mode) {
      const int rc = run_bench(workload, info, *predictor, queries);
      if (rc != 0) return rc;
    }
    if (simulate_mode) {
      const int rc = run_simulate(workload, info, predictor);
      if (rc != 0) return rc;
    }
    if (serve_mode) {
      const int rc = run_serve(workload, info, predictor, serve_config, serve_load);
      if (rc != 0) return rc;
    }
  }
  return 0;
} catch (const std::exception& e) {
  return common::report_error(e);
}
