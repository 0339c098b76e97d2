// Chaos tests for the overload-resilient serving layer (DESIGN.md §11):
// the deterministic fault-injection matrix — slow shard + deadline storm,
// stalled shard + watchdog restart, corrupt/truncated artifact swap
// quarantine, dropped park wakes, a backlog behind a slow batch served as
// one batch, ring saturation with injected submit rejection, injected
// refusals under the open-loop load generator, and the admission
// watermarks under sustained overload.
//
// The contract under test: every submitted request resolves to exactly one
// of {completed with the correct trace ID and bit-exact probabilities,
// explicitly shed (Response::Status::kShed), explicitly rejected at submit
// (return 0)} — overload and faults may slow or shed work but may never
// lose or corrupt it silently — and once the faults clear the server
// returns to Healthy and serves bit-exact again. Runs under ThreadSanitizer
// in the serve-chaos CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/text.hpp"
#include "common/timer.hpp"
#include "io/artifact.hpp"
#include "nn/tensor.hpp"
#include "nn/transformer.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "tabular/tabular_predictor.hpp"
#include "tabular/tabularizer.hpp"

namespace dart::serve {
namespace {

nn::ModelConfig tiny_arch() {
  nn::ModelConfig a;
  a.seq_len = 4;
  a.addr_dim = 4;
  a.pc_dim = 4;
  a.dim = 8;
  a.ffn_dim = 16;
  a.out_dim = 12;
  a.heads = 2;
  a.layers = 1;
  return a;
}

/// Deterministic tiny predictor via the real tabularize path (the same
/// construction the io_artifact round-trip tests prove artifact-codec
/// clean, which the swap_artifact tests rely on).
/// Different seeds give different tables, hence distinguishable answers.
std::shared_ptr<const tabular::TabularPredictor> make_model(std::uint64_t seed) {
  nn::AddressPredictor model(tiny_arch(), seed);
  nn::Tensor addr = nn::Tensor::randn({48, 4, 4}, 0.6f, seed + 100);
  nn::Tensor pc = nn::Tensor::randn({48, 4, 4}, 0.6f, seed + 101);
  tabular::TabularizeOptions options;
  options.tables = tabular::TableConfig::uniform(8, 2);
  options.fine_tune = false;
  options.kmeans_iters = 4;
  options.max_train_samples = 48;
  return std::make_shared<const tabular::TabularPredictor>(
      tabular::tabularize(model, addr, pc, options));
}

/// A deterministic bank of distinct feature inputs.
struct InputBank {
  std::size_t count, addr_len, pc_len;
  nn::Tensor addr, pc;

  InputBank(const nn::ModelConfig& arch, std::size_t n)
      : count(n),
        addr_len(arch.seq_len * arch.addr_dim),
        pc_len(arch.seq_len * arch.pc_dim),
        addr(nn::Tensor::randn({n, arch.seq_len, arch.addr_dim}, 1.0f, 777)),
        pc(nn::Tensor::randn({n, arch.seq_len, arch.pc_dim}, 1.0f, 778)) {}

  const float* addr_of(std::size_t i) const { return addr.data() + i * addr_len; }
  const float* pc_of(std::size_t i) const { return pc.data() + i * pc_len; }
};

/// Reference answers via the direct single-sample path.
std::vector<std::vector<float>> reference_probs(const tabular::TabularPredictor& model,
                                                const InputBank& bank, std::size_t out_dim) {
  tabular::InferenceWorkspace ws;
  std::vector<std::vector<float>> ref(bank.count, std::vector<float>(out_dim));
  for (std::size_t i = 0; i < bank.count; ++i) {
    model.forward_sample_into(bank.addr_of(i), bank.pc_of(i), ref[i].data(), ws);
  }
  return ref;
}

ServeConfig chaos_config() {
  ServeConfig c;
  c.shards = 1;
  c.queue_capacity = 64;
  c.completion_capacity = 64;
  c.batch_cap = 8;
  return c;
}

/// Disarms the global injector on scope exit so one failing test cannot
/// poison the rest of the binary.
struct FaultGuard {
  ~FaultGuard() { common::fault_injector().clear(); }
};

/// Full per-request accounting of one single-threaded client load: every
/// submit resolves to exactly one of completed / shed / rejected-at-submit,
/// completions echo the right trace ID, and every kOk answer must be
/// bit-exact against at least one of `refs` (several epochs may
/// legitimately serve during a chaos run).
struct LoadOutcome {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;     ///< Response::Status::kOk
  std::uint64_t shed = 0;          ///< Response::Status::kShed
  std::uint64_t rejected = 0;      ///< submit() returned 0 (each retried)
  std::uint64_t id_mismatches = 0;
  std::uint64_t bad_probs = 0;     ///< kOk answer matching none of the refs
};

LoadOutcome drive(PrefetchServer& server, const InputBank& bank,
                  const std::vector<const std::vector<std::vector<float>>*>& refs,
                  std::size_t requests, std::size_t window) {
  const std::size_t out_dim = server.arch().out_dim;
  auto session = server.connect(window);
  std::vector<std::vector<float>> probs(window, std::vector<float>(out_dim));
  std::vector<std::uint64_t> expect_id(window, 0);
  std::vector<std::size_t> expect_input(window, 0);
  std::vector<std::size_t> free_slots;
  for (std::size_t i = 0; i < window; ++i) free_slots.push_back(i);

  LoadOutcome o;
  auto slot_of = [&](const float* p) -> std::size_t {
    for (std::size_t i = 0; i < window; ++i) {
      if (probs[i].data() == p) return i;
    }
    return window;
  };
  auto drain = [&](bool block) {
    Response r;
    do {
      while (session->poll(r)) {
        const std::size_t s = slot_of(r.probs);
        if (s == window || expect_id[s] != r.trace_id) ++o.id_mismatches;
        if (r.status == Response::Status::kShed) {
          ++o.shed;
        } else {
          ++o.completed;
          if (s != window) {
            bool exact = false;
            for (const auto* ref : refs) {
              exact = exact || std::memcmp(probs[s].data(), (*ref)[expect_input[s]].data(),
                                           out_dim * sizeof(float)) == 0;
            }
            if (!exact) ++o.bad_probs;
          }
        }
        if (s != window) free_slots.push_back(s);
      }
      if (block && session->in_flight() > 0) std::this_thread::yield();
    } while (block && session->in_flight() > 0);
  };

  for (std::size_t i = 0; i < requests; ++i) {
    while (free_slots.empty()) {
      drain(false);
      if (free_slots.empty()) std::this_thread::yield();
    }
    const std::size_t s = free_slots.back();
    free_slots.pop_back();
    const std::size_t input = i % bank.count;
    expect_input[s] = input;
    for (;;) {
      const std::uint64_t id =
          session->submit(bank.addr_of(input), bank.pc_of(input), probs[s].data());
      if (id != 0) {
        expect_id[s] = id;
        break;
      }
      ++o.rejected;  // explicit rejection: retry, never silently dropped
      drain(false);
      std::this_thread::yield();
    }
    ++o.submitted;
    drain(false);
  }
  drain(true);
  return o;
}

/// Polls `pred` until true or `timeout_ms` elapses.
template <typename Pred>
bool wait_until(Pred pred, std::size_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

std::string temp_artifact(const char* name,
                          const std::shared_ptr<const tabular::TabularPredictor>& model) {
  const std::string path = (std::filesystem::temp_directory_path() / name).string();
  io::ArtifactMeta meta;
  meta.producer = "serve_chaos_test";
  io::save_predictor_artifact(path, *model, meta);
  return path;
}

// ---------------------------------------------------------------- grammar

// A DART_FAULT spec is a common::split_spec_list of common::Spec clauses.
common::Spec parse_clause(const std::string& text) {
  return common::Spec::parse(text, ':', "DART_FAULT");
}

TEST(FaultSpec, ParsesClausesAndParams) {
  EXPECT_TRUE(common::split_spec_list("").empty());
  EXPECT_TRUE(common::split_spec_list(" ; ;").empty());
  const std::string text =
      "slow-shard:shard=1,us=5000; drop-wake:p=0.5,seed=42 ;stall-shard:shard=0";
  const auto clauses = common::split_spec_list(text);
  ASSERT_EQ(clauses.size(), 3u);
  common::Spec slow = parse_clause(clauses[0]);
  EXPECT_EQ(slow.name(), "slow-shard");
  EXPECT_EQ(slow.unused_keys(), (std::vector<std::string>{"shard", "us"}));
  EXPECT_EQ(slow.get_string("shard", ""), "1");
  common::Spec drop = parse_clause(clauses[1]);
  EXPECT_EQ(drop.name(), "drop-wake");
  EXPECT_EQ(drop.get_string("seed", ""), "42");
  EXPECT_EQ(parse_clause(clauses[2]).name(), "stall-shard");

  FaultGuard guard;
  common::FaultInjector& inj = common::fault_injector();
  inj.install(text);
  EXPECT_TRUE(inj.armed());
  inj.install(" ; ;");
  EXPECT_FALSE(inj.armed()) << "a blank spec disarms";
}

TEST(FaultSpec, RejectsMalformedGrammar) {
  FaultGuard guard;
  common::FaultInjector& inj = common::fault_injector();
  // A bare key parses as a flag, and install's valued getter refuses it.
  EXPECT_NO_THROW(parse_clause("slow-shard:shard"));
  EXPECT_THROW(inj.install("slow-shard:shard"), common::InputError);
  for (const char* bad : {"slow-shard:=3", ":p=1"}) {  // empty key, empty kind
    EXPECT_THROW(parse_clause(bad), common::InputError) << bad;
    EXPECT_THROW(inj.install(bad), common::InputError) << bad;
  }
}

TEST(FaultInjector, RejectsBadSpecsAndKeepsThePreviousPlanArmed) {
  FaultGuard guard;
  common::FaultInjector& inj = common::fault_injector();
  inj.install("slow-shard:shard=0,us=1");
  EXPECT_TRUE(inj.armed());
  // Semantic errors: unknown kind, unknown/missing params, bad values.
  EXPECT_THROW(inj.install("explode-shard:shard=0"), std::invalid_argument);
  EXPECT_THROW(inj.install("slow-shard:shard=0"), std::invalid_argument);       // missing us
  EXPECT_THROW(inj.install("slow-shard:shard=0,us=abc"), std::invalid_argument);
  EXPECT_THROW(inj.install("slow-shard:shard=0,us=1,wat=2"), std::invalid_argument);
  EXPECT_THROW(inj.install("drop-wake:p=1.5"), std::invalid_argument);          // p out of range
  EXPECT_THROW(inj.install("drop-wake:seed=1"), std::invalid_argument);         // missing p
  // Durations neither wrap a sign nor exceed kMaxTimerSeconds, where the
  // injected sleep's duration would wrap and silently do nothing.
  const std::string max_us = std::to_string(common::kMaxTimerSeconds * 1000 * 1000);
  const std::string max_ms = std::to_string(common::kMaxTimerSeconds * 1000);
  for (const std::string& bad : std::vector<std::string>{
           "slow-shard:shard=0,us=-1", "slow-shard:shard=0,us=" + max_us + "1",
           "slow-cell:match=BO,ms=-1", "slow-cell:match=BO,ms=" + max_ms + "1",
           "slow-cell:match=BO,ms=5x", "drop-wake:p=nan"}) {
    EXPECT_THROW(inj.install(bad), common::InputError) << bad;
  }
  EXPECT_TRUE(inj.armed()) << "a failed install must leave the previous plan armed";
  inj.install("slow-shard:shard=0,us=" + max_us + ";slow-cell:match=BO,ms=" + max_ms);  // bounds
  inj.install("");
  EXPECT_FALSE(inj.armed());
}

// ----------------------------------------------- slow shard + deadlines

TEST(ServeChaos, SlowShardDeadlineStormShedsExplicitlyAndRecoversBitExact) {
  FaultGuard guard;
  const nn::ModelConfig arch = tiny_arch();
  const auto model = make_model(1);
  const InputBank bank(arch, 16);
  const auto ref = reference_probs(*model, bank, arch.out_dim);

  ServeConfig config = chaos_config();
  config.deadline_us = 10000;  // 10 ms: generous for a healthy tiny model
  PrefetchServer server(model, config);

  // Every batch takes 30 ms > the 10 ms deadline: queued requests expire.
  common::fault_injector().install("slow-shard:shard=0,us=30000");
  const LoadOutcome storm = drive(server, bank, {&ref}, 96, 32);
  EXPECT_EQ(storm.submitted, 96u);
  EXPECT_EQ(storm.completed + storm.shed, storm.submitted)
      << "a deadline storm must resolve every request, never lose one";
  EXPECT_GT(storm.shed, 0u) << "30 ms batches cannot meet 10 ms deadlines";
  EXPECT_EQ(storm.id_mismatches, 0u);
  EXPECT_EQ(storm.bad_probs, 0u) << "a served (non-shed) answer must still be bit-exact";

  ServeStatsSummary stats = server.stats();
  EXPECT_EQ(stats.shed, storm.shed);
  EXPECT_GT(stats.deadline_missed, 0u);

  // Faults cleared: the same server serves everything bit-exact again.
  common::fault_injector().clear();
  const LoadOutcome calm = drive(server, bank, {&ref}, 64, 16);
  EXPECT_EQ(calm.completed, 64u);
  EXPECT_EQ(calm.shed, 0u);
  EXPECT_EQ(calm.id_mismatches, 0u);
  EXPECT_EQ(calm.bad_probs, 0u);
  EXPECT_TRUE(server.stats().all_healthy);
}

// ------------------------------------------- stalled shard + watchdog

TEST(ServeChaos, WatchdogRestartsAStalledShardWithoutLosingRequests) {
  FaultGuard guard;
  const nn::ModelConfig arch = tiny_arch();
  const auto model = make_model(1);
  const InputBank bank(arch, 16);
  const auto ref = reference_probs(*model, bank, arch.out_dim);

  ServeConfig config = chaos_config();
  config.watchdog_ms = 25;        // fast sweeps so the test finishes quickly
  config.watchdog_miss_budget = 2;
  PrefetchServer server(model, config);

  // The first batch on shard 0 stops heartbeating; the watchdog must
  // declare the stall, abandon the thread (its held batch is shed), and
  // respawn a successor that drains the surviving ingress ring.
  common::fault_injector().install("stall-shard:shard=0,after=0");
  const LoadOutcome stalled = drive(server, bank, {&ref}, 40, 40);
  EXPECT_EQ(stalled.submitted, 40u);
  EXPECT_EQ(stalled.completed + stalled.shed, 40u)
      << "a restarted shard must resolve every accepted request";
  EXPECT_GT(stalled.shed, 0u) << "the abandoned thread's held batch is shed, not lost";
  EXPECT_EQ(stalled.id_mismatches, 0u);
  EXPECT_EQ(stalled.bad_probs, 0u);
  EXPECT_EQ(common::fault_injector().counters().stalls, 1u);

  ASSERT_TRUE(wait_until([&] { return server.stats().watchdog_restarts >= 1; }, 2000))
      << "watchdog never restarted the stalled shard";
  ASSERT_TRUE(wait_until([&] { return server.stats().all_healthy; }, 2000))
      << "shard did not return to Healthy after the restart";

  // The stall clause is exactly-once; the successor serves bit-exact.
  common::fault_injector().clear();
  const LoadOutcome after = drive(server, bank, {&ref}, 32, 16);
  EXPECT_EQ(after.completed, 32u);
  EXPECT_EQ(after.shed, 0u);
  EXPECT_EQ(after.bad_probs, 0u);
  EXPECT_TRUE(server.stats().all_healthy);
}

// ------------------------------------------ artifact swap quarantine

TEST(ServeChaos, CorruptArtifactSwapIsQuarantinedAndTheOldEpochKeepsServing) {
  FaultGuard guard;
  const nn::ModelConfig arch = tiny_arch();
  const auto model_a = make_model(1);
  const auto model_b = make_model(5000);
  const InputBank bank(arch, 8);
  const auto ref_a = reference_probs(*model_a, bank, arch.out_dim);
  const auto ref_b = reference_probs(*model_b, bank, arch.out_dim);
  ASSERT_NE(std::memcmp(ref_a[0].data(), ref_b[0].data(), arch.out_dim * sizeof(float)), 0)
      << "models must be distinguishable or the test proves nothing";
  const std::string path_b = temp_artifact("chaos_swap_b.dart", model_b);

  ServeConfig config = chaos_config();
  config.reload_retries = 2;
  config.reload_backoff_us = 100;
  PrefetchServer server(model_a, config);
  const std::uint64_t epoch_before = server.epoch();

  // Every read of the artifact image is corrupted: all attempts (1 + 2
  // retries) must be rejected, the swap must throw, and the old epoch must
  // keep serving — an ArtifactError never takes the server down.
  common::fault_injector().install("corrupt-artifact:offset=32,count=10");
  EXPECT_THROW(server.swap_artifact(path_b), io::ArtifactError);
  EXPECT_EQ(server.epoch(), epoch_before) << "a rejected swap must publish nothing";
  EXPECT_EQ(server.stats().reload_rejected, 3u);  // initial attempt + 2 retries
  EXPECT_GE(common::fault_injector().counters().artifacts_mutated, 3u);
  const LoadOutcome during = drive(server, bank, {&ref_a}, 32, 8);
  EXPECT_EQ(during.completed, 32u);
  EXPECT_EQ(during.bad_probs, 0u) << "old epoch must serve bit-exact through the quarantine";

  // Truncation that heals after one read: attempt 0 is rejected, the retry
  // reads a clean image and the swap goes through.
  common::fault_injector().install("truncate-artifact:bytes=8,count=1");
  const std::uint64_t epoch_after = server.swap_artifact(path_b);
  EXPECT_GT(epoch_after, epoch_before);
  EXPECT_EQ(server.stats().reload_rejected, 4u);  // 3 from the corrupt phase + 1 here
  const LoadOutcome swapped = drive(server, bank, {&ref_b}, 32, 8);
  EXPECT_EQ(swapped.completed, 32u);
  EXPECT_EQ(swapped.bad_probs, 0u) << "the published swap must serve the new artifact bit-exact";
  EXPECT_TRUE(server.stats().all_healthy);
  std::remove(path_b.c_str());
}

TEST(ServeChaos, GeometryMismatchSwapFailsFastWithoutRetries) {
  FaultGuard guard;
  nn::ModelConfig wide = tiny_arch();
  wide.out_dim = 24;  // client buffers are sized to out_dim = 12
  nn::AddressPredictor nn_model(wide, 9);
  nn::Tensor addr = nn::Tensor::randn({48, 4, 4}, 0.6f, 900);
  nn::Tensor pc = nn::Tensor::randn({48, 4, 4}, 0.6f, 901);
  tabular::TabularizeOptions options;
  options.tables = tabular::TableConfig::uniform(8, 2);
  options.fine_tune = false;
  options.kmeans_iters = 4;
  options.max_train_samples = 48;
  const auto mismatched = std::make_shared<const tabular::TabularPredictor>(
      tabular::tabularize(nn_model, addr, pc, options));
  const std::string path = temp_artifact("chaos_swap_wide.dart", mismatched);

  PrefetchServer server(make_model(1), chaos_config());
  const std::uint64_t before = server.epoch();
  // A valid artifact of the wrong geometry is deterministic damage: fail
  // immediately (no retry loop), count it, publish nothing.
  EXPECT_THROW(server.swap_artifact(path), std::invalid_argument);
  EXPECT_EQ(server.epoch(), before);
  EXPECT_EQ(server.stats().reload_rejected, 1u);
  std::remove(path.c_str());
}

// --------------------------------------------------------- drop-wake

TEST(ServeChaos, DroppedParkWakesDelayButNeverLoseRequests) {
  FaultGuard guard;
  const nn::ModelConfig arch = tiny_arch();
  const auto model = make_model(1);
  const InputBank bank(arch, 16);
  const auto ref = reference_probs(*model, bank, arch.out_dim);

  PrefetchServer server(model, chaos_config());
  // Suppress every post-push wake: the 200 us park timeout is the designed
  // backstop, so every request still completes — late, never lost. The
  // load is a paced trickle (one request at a time with idle gaps) so the
  // shard actually parks between requests; a continuous stream keeps it
  // hot and the wake path — the thing under test — never runs.
  common::fault_injector().install("drop-wake:p=1.0,seed=7");
  auto session = server.connect(8);
  std::vector<float> probs(arch.out_dim);
  for (std::size_t i = 0; i < 64; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(400));
    const std::size_t input = i % bank.count;
    const std::uint64_t id = session->submit(bank.addr_of(input), bank.pc_of(input), probs.data());
    ASSERT_NE(id, 0u) << "an idle shard must never backpressure a lone submit";
    Response r;
    ASSERT_TRUE(wait_until([&] { return session->poll(r); }, 1000))
        << "request " << i << " was lost: the park timeout backstop never fired";
    EXPECT_EQ(r.trace_id, id);
    EXPECT_EQ(r.status, Response::Status::kOk);
    EXPECT_EQ(std::memcmp(probs.data(), ref[input].data(), arch.out_dim * sizeof(float)), 0);
  }
  EXPECT_GT(common::fault_injector().counters().wakes_dropped, 0u)
      << "the fault never fired; the test exercised nothing";
}

// --------------------------------------------- self-clocking batches

TEST(ServeChaos, BacklogFormsBatchesWithoutWaiting) {
  FaultGuard guard;
  const nn::ModelConfig arch = tiny_arch();
  const auto model = make_model(1);
  const InputBank bank(arch, 8);
  const auto ref = reference_probs(*model, bank, arch.out_dim);

  const ServeConfig config = chaos_config();
  ASSERT_EQ(config.batch_cap, 8u);
  PrefetchServer server(model, config);
  // The first batch takes 20 ms: whatever it did not pop queues up behind
  // it and must come out as one batch, with no wait for stragglers.
  common::fault_injector().install("slow-shard:shard=0,us=20000,batches=1");
  auto session = server.connect(8);
  std::vector<std::vector<float>> probs(8, std::vector<float>(arch.out_dim));
  std::vector<std::uint64_t> ids(8);
  for (std::size_t i = 0; i < 8; ++i) {
    ids[i] = session->submit(bank.addr_of(i), bank.pc_of(i), probs[i].data());
    ASSERT_NE(ids[i], 0u);
  }
  std::vector<Response> responses;
  ASSERT_TRUE(wait_until(
      [&] {
        Response r;
        while (session->poll(r)) responses.push_back(r);
        return responses.size() == 8;
      },
      2000))
      << "only " << responses.size() << " of 8 requests came back";
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(responses[i].trace_id, ids[i]) << "a session completes in submission order";
    EXPECT_EQ(responses[i].status, Response::Status::kOk);
    EXPECT_EQ(responses[i].probs, probs[i].data());
    EXPECT_EQ(std::memcmp(probs[i].data(), ref[i].data(), arch.out_dim * sizeof(float)), 0);
  }
  EXPECT_EQ(common::fault_injector().counters().slow_batches, 1u);
  const ServeStatsSummary stats = server.stats();
  EXPECT_LE(stats.batches, 2u) << "the backlog behind the slow batch must form one batch";
  EXPECT_GE(stats.avg_batch, 4.0);
}

// ------------------------------------------------- ring saturation

TEST(ServeChaos, SaturatedTinyRingWithInjectedRejectionsLosesNothing) {
  FaultGuard guard;
  const nn::ModelConfig arch = tiny_arch();
  const auto model = make_model(1);
  const InputBank bank(arch, 16);
  const auto ref = reference_probs(*model, bank, arch.out_dim);

  ServeConfig config = chaos_config();
  config.queue_capacity = 2;  // constant genuine backpressure...
  PrefetchServer server(model, config);
  // ...plus a deterministic 25% injected rejection on top of it.
  common::fault_injector().install("reject-submit:p=0.25,seed=9");
  const LoadOutcome o = drive(server, bank, {&ref}, 200, 4);
  EXPECT_EQ(o.submitted, 200u);
  EXPECT_EQ(o.completed, 200u) << "every accepted request completes despite saturation";
  EXPECT_GT(o.rejected, 0u);
  EXPECT_EQ(o.id_mismatches, 0u);
  EXPECT_EQ(o.bad_probs, 0u);
  EXPECT_GT(common::fault_injector().counters().submits_rejected, 0u);
}

// Under injected refusals the open-loop generator counts each refused
// submit as a miss at +infinity latency and never retries it, so the
// refusals show in the tail instead of hiding in client-side queueing.
TEST(ServeChaos, RefusedSubmitsAreMissesNotRetries) {
  FaultGuard guard;
  const nn::ModelConfig arch = tiny_arch();
  ServeConfig config;
  config.shards = 2;
  PrefetchServer server(make_model(1), config);
  LoadOptions load;
  load.streams = 2;
  load.requests_per_stream = 400;
  load.rate_per_s = 2000.0;
  load.trace_accesses = 4096;
  load.prep.history = arch.seq_len;
  load.prep.addr_segments = arch.addr_dim;
  load.prep.pc_segments = arch.pc_dim;
  load.prep.bitmap_size = arch.out_dim;
  common::fault_injector().install("reject-submit:p=0.25,seed=9");
  const LoadReport report = run_client_load(server, load);

  const std::uint64_t planned = load.streams * load.requests_per_stream;
  EXPECT_GT(report.missed, 0u);
  EXPECT_EQ(report.missed, common::fault_injector().counters().submits_rejected);
  EXPECT_EQ(report.completed + report.shed + report.missed, planned);
  EXPECT_EQ(report.id_mismatches, 0u);
  EXPECT_TRUE(std::isinf(report.p99_us));
  EXPECT_TRUE(std::isfinite(report.p50_us));
}

// A drain that gives up with requests still inside a slow shard counts
// them as lost, and stops the server before the sessions and buffers those
// requests borrowed are freed, so no shard writes into freed client memory
// (the ASan and TSan builds would report it).
TEST(ServeChaos, DrainGiveUpCountsLostAndStopsServerBeforeFreeingBuffers) {
  FaultGuard guard;
  const nn::ModelConfig arch = tiny_arch();
  ServeConfig config = chaos_config();
  config.watchdog_ms = 0;  // the slow batch is slow, not stalled
  PrefetchServer server(make_model(1), config);
  LoadOptions load;
  load.streams = 1;
  load.requests_per_stream = 16;
  load.rate_per_s = 10000.0;
  load.trace_accesses = 256;
  load.prep.history = arch.seq_len;
  load.prep.addr_segments = arch.addr_dim;
  load.prep.pc_segments = arch.pc_dim;
  load.prep.bitmap_size = arch.out_dim;
  // The first batch sleeps 300 ms, far past the 20 ms give-up.
  common::fault_injector().install("slow-shard:shard=0,us=300000,batches=1");
  const LoadReport report = run_client_load(server, load, std::chrono::milliseconds(20));

  EXPECT_EQ(report.submitted, load.requests_per_stream);
  EXPECT_EQ(report.missed, 0u);
  EXPECT_LT(report.completed + report.shed, report.submitted) << "the slow batch must be lost";
  EXPECT_EQ(report.id_mismatches, 0u);
  EXPECT_TRUE(std::isinf(report.p99_us));
  // Every accepted request resolved inside run_client_load, lost ones too.
  const ServeStatsSummary stats = server.stats();
  EXPECT_EQ(stats.requests + stats.shed, report.submitted);
}

// ------------------------------------- admission watermarks under overload

TEST(ServeChaos, SustainedOverloadClosesAdmissionAndReopensAtLowWatermark) {
  FaultGuard guard;
  const nn::ModelConfig arch = tiny_arch();
  const auto model = make_model(1);
  const InputBank bank(arch, 16);
  const auto ref = reference_probs(*model, bank, arch.out_dim);

  ServeConfig config = chaos_config();
  config.batch_cap = 4;
  config.watermark_hi = 8;
  config.watermark_lo = 2;
  PrefetchServer server(model, config);

  // 500 us per batch of <= 4 while a 64-deep client window floods the
  // queue: depth reaches the high watermark and the gate closes.
  common::fault_injector().install("slow-shard:shard=0,us=500");
  const LoadOutcome o = drive(server, bank, {&ref}, 300, 64);
  EXPECT_EQ(o.submitted, 300u);
  EXPECT_EQ(o.completed + o.shed, 300u);
  EXPECT_EQ(o.id_mismatches, 0u);
  EXPECT_EQ(o.bad_probs, 0u) << "every answer must be bit-exact against the float model";
  EXPECT_GT(o.rejected, 0u) << "the closed admission gate never rejected a submit";
  EXPECT_GT(server.stats().admission_rejected, 0u);
  // One client thread: submit sees every push of its own, so the ingress
  // depth can never pass the high watermark.
  EXPECT_LE(server.stats().shards[0].queue_depth_max, config.watermark_hi)
      << "queue depth overran the high watermark";

  // Load gone, faults cleared: the drained queue is below the low
  // watermark, so the gate reopens and the shard serves bit-exact.
  common::fault_injector().clear();
  ASSERT_TRUE(wait_until([&] { return server.stats().all_healthy; }, 2000))
      << "shard not healthy after the queue drained";
  auto probe = server.connect(1);
  std::vector<float> probs(arch.out_dim);
  ASSERT_TRUE(wait_until(
      [&] { return probe->submit(bank.addr_of(0), bank.pc_of(0), probs.data()) != 0; }, 2000))
      << "admission did not reopen after the queue drained";
  Response r;
  if (!wait_until([&] { return probe->poll(r); }, 2000)) {
    server.stop();  // completes the probe while `probs` is still alive
    FAIL() << "the accepted probe never completed";
  }
  EXPECT_EQ(0, std::memcmp(probs.data(), ref[0].data(), arch.out_dim * sizeof(float)));
  const LoadOutcome calm = drive(server, bank, {&ref}, 32, 8);
  EXPECT_EQ(calm.completed, 32u);
  EXPECT_EQ(calm.bad_probs, 0u);
}

}  // namespace
}  // namespace dart::serve
