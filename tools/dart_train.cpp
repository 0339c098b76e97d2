// dart_train — train a DART model and ship it as a versioned `.dart`
// artifact (DESIGN.md §7).
//
// Runs the full pipeline for one workload (trace -> teacher -> distilled
// student -> layer-wise tabularization), persists the deployable bundle,
// then reloads it and verifies the round trip is bit-exact on held-out
// inputs before reporting success. The artifact can be served by
// `dart_run`, the `dart-artifact:file=...` prefetcher spec, or any process
// linking `src/io` — with no training dependency.
//
//   dart_train [--app 605.mcf | --workload SPEC] [--variant s|m|l]
//              [--tables K] [--codebooks C] [--out FILE]
//              [--artifact-dir DIR] [--no-verify]
//
// `--app`/`--workload` accept the full trace/workloads.hpp spec grammar:
// Table IV app names and synthetic specs like
// "trace:zipfian,theta=0.99,footprint=64M" or "ycsb-b" train just the same.
//
// `--artifact-dir` additionally caches teacher/student checkpoints there,
// so retraining a different variant of the same app skips the teacher.
// Scale knobs come from the DART_* environment (see README.md): a quick
// smoke run is `DART_EPOCHS=1 DART_TRAIN_SAMPLES=800 DART_SIM_INSTR=60000
// dart_train --app 462.libquantum --variant s`.
//
// Exit codes: 0 = trained and verified, 2 = bad flag, environment knob or
// spec (a malformed number is refused by name), 1 = any other failure.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/text.hpp"
#include "common/timer.hpp"
#include "core/artifact_cache.hpp"
#include "core/pipeline.hpp"
#include "io/artifact.hpp"

using namespace dart;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--app NAME | --workload SPEC] [--variant s|m|l] [--tables K]\n"
               "          [--codebooks C] [--out FILE] [--artifact-dir DIR] [--no-verify]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string app_name = "605.mcf";
  std::string out_path;
  std::string artifact_dir;
  sim::DartModelRequest request;
  bool verify = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&] { return common::flag_value(argc, argv, i); };
    if (arg == "--app" || arg == "--workload") {
      app_name = value();
    } else if (arg == "--variant") {
      request.variant = value();
    } else if (arg == "--tables") {
      request.table_k = common::parse_uint(arg, value());
    } else if (arg == "--codebooks") {
      request.table_c = common::parse_uint(arg, value());
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--artifact-dir") {
      artifact_dir = value();
    } else if (arg == "--no-verify") {
      verify = false;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  const trace::Workload workload = trace::Workload::parse(app_name);
  core::PipelineOptions options = core::PipelineOptions::bench_defaults();
  if (!artifact_dir.empty()) options.artifact_dir = artifact_dir;
  if (out_path.empty()) {
    out_path = workload.name() + "-" + core::normalize_dart_variant(request.variant) +
               ".dart";
  }

  std::printf("== dart_train: %s, variant %s ==\n", workload.name().c_str(),
              core::normalize_dart_variant(request.variant).c_str());
  common::Stopwatch timer;
  core::Pipeline pipe(workload, options);
  core::TrainedDart trained = core::train_dart(pipe, request);
  const double train_seconds = timer.elapsed_s();

  if (!core::save_dart_artifact(out_path, workload, trained, "dart_train")) return 1;
  const io::ArtifactInfo info = io::read_artifact_info(out_path);

  const nn::F1Result f1 = pipe.eval_tabular(trained.predictor);
  std::printf("model     : %s (%zu-cycle latency, %.1f KB tables)\n",
              trained.display_name.c_str(), trained.latency_cycles,
              trained.predictor.storage_bytes() / 1024.0);
  std::printf("test F1   : %.4f (precision %.4f, recall %.4f)\n", f1.f1, f1.precision,
              f1.recall);
  std::printf("trained in: %.1fs\n", train_seconds);
  std::printf("artifact  : %s (content hash %016llx, config key %s)\n", out_path.c_str(),
              static_cast<unsigned long long>(info.content_hash),
              trained.config_key.c_str());

  if (verify) {
    // Round-trip proof: the reloaded artifact must reproduce the in-process
    // predictor bit-exactly on held-out inputs.
    const tabular::TabularPredictor reloaded = io::load_predictor_artifact(out_path);
    const nn::Dataset& test = pipe.test_set();
    const std::size_t n = std::min<std::size_t>(test.size(), 256);
    const nn::Dataset probe = test.slice(0, n);
    const nn::Tensor expect = trained.predictor.forward(probe.addr, probe.pc);
    const nn::Tensor got = reloaded.forward(probe.addr, probe.pc);
    if (expect.numel() != got.numel() ||
        std::memcmp(expect.data(), got.data(), expect.numel() * sizeof(float)) != 0) {
      std::fprintf(stderr, "round-trip verification FAILED: reloaded predictions differ\n");
      return 1;
    }
    std::printf("round-trip: verified bit-exact on %zu held-out samples\n", n);
  }
  return 0;
} catch (const std::exception& e) {
  return common::report_error(e);
}
