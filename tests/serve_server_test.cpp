// Integration tests for the prefetch-as-a-service engine (DESIGN.md §9):
// end-to-end correctness of multi-client serving vs the direct query path,
// ingress backpressure, model hot-swap (no request lost, none served by a
// torn artifact), stats plumbing, the bounds on the values that size
// threads, rings and load buffers, the open-loop load generator's
// per-request accounting, and the shares_mutable_model() audit.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "nn/tensor.hpp"
#include "prefetch/nn_prefetchers.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "tabular/tabular_predictor.hpp"

namespace dart::serve {
namespace {

/// Tiny test geometry: big enough to exercise every kernel class, small
/// enough that reference forwards are instant.
nn::ModelConfig tiny_arch() {
  nn::ModelConfig a;
  a.layers = 1;
  a.dim = 8;
  a.heads = 2;
  a.seq_len = 4;
  a.ffn_dim = 16;
  a.addr_dim = 4;
  a.pc_dim = 4;
  a.out_dim = 16;
  return a;
}

/// Deterministic tiny predictor; different seeds yield different tables,
/// which is how the hot-swap test tells model A's answers from model B's.
std::shared_ptr<const tabular::TabularPredictor> tiny_predictor(std::uint64_t seed,
                                                                const nn::ModelConfig& arch) {
  const std::size_t m = 64;  // training rows for prototype learning
  auto next = [&seed] { return seed += 17; };

  tabular::KernelConfig lin;
  lin.num_prototypes = 16;
  lin.num_subspaces = 2;
  lin.kmeans_iters = 2;

  auto make_linear = [&](std::size_t dout, std::size_t din) {
    nn::Tensor w = nn::Tensor::randn({dout, din}, 0.5f, next());
    nn::Tensor b = nn::Tensor::randn({dout}, 0.2f, next());
    nn::Tensor rows = nn::Tensor::randn({m, din}, 1.0f, next());
    tabular::KernelConfig cfg = lin;
    cfg.seed = next();
    return std::make_unique<tabular::LinearKernel>(w, b, rows, cfg);
  };

  auto tab = std::make_shared<tabular::TabularPredictor>(arch);
  tab->addr_kernel = make_linear(arch.dim, arch.addr_dim);
  tab->pc_kernel = make_linear(arch.dim, arch.pc_dim);
  tab->pos_encoding = nn::Tensor::randn({arch.seq_len, arch.dim}, 0.1f, next());
  const std::size_t dh = arch.dim / arch.heads;
  for (std::size_t l = 0; l < arch.layers; ++l) {
    tabular::TabularEncoderLayer layer;
    layer.qkv = make_linear(3 * arch.dim, arch.dim);
    for (std::size_t h = 0; h < arch.heads; ++h) {
      nn::Tensor q = nn::Tensor::randn({m, arch.seq_len, dh}, 1.0f, next());
      nn::Tensor k = nn::Tensor::randn({m, arch.seq_len, dh}, 1.0f, next());
      nn::Tensor v = nn::Tensor::randn({m, arch.seq_len, dh}, 1.0f, next());
      tabular::AttentionKernelConfig acfg;
      acfg.num_prototypes = 16;
      acfg.ck = 2;
      acfg.ct = 2;
      acfg.kmeans_iters = 2;
      acfg.seed = next();
      layer.heads.push_back(std::make_unique<tabular::AttentionKernel>(q, k, v, acfg));
    }
    layer.out_proj = make_linear(arch.dim, arch.dim);
    layer.ln1.gamma = nn::Tensor::randn({arch.dim}, 0.1f, next());
    layer.ln1.beta = nn::Tensor::randn({arch.dim}, 0.1f, next());
    for (std::size_t j = 0; j < arch.dim; ++j) layer.ln1.gamma[j] += 1.0f;
    layer.ffn_hidden = make_linear(arch.ffn_dim, arch.dim);
    layer.ffn_out = make_linear(arch.dim, arch.ffn_dim);
    layer.ln2.gamma = nn::Tensor::randn({arch.dim}, 0.1f, next());
    layer.ln2.beta = nn::Tensor::randn({arch.dim}, 0.1f, next());
    for (std::size_t j = 0; j < arch.dim; ++j) layer.ln2.gamma[j] += 1.0f;
    tab->layers.push_back(std::move(layer));
  }
  tab->final_ln.gamma = nn::Tensor::randn({arch.dim}, 0.1f, next());
  tab->final_ln.beta = nn::Tensor::randn({arch.dim}, 0.1f, next());
  for (std::size_t j = 0; j < arch.dim; ++j) tab->final_ln.gamma[j] += 1.0f;
  tab->head_kernel = make_linear(arch.out_dim, arch.dim);
  return tab;
}

/// A deterministic bank of feature inputs: `count` distinct [T, S] rows.
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

/// Reference answers: model(inputs[i]) via the direct single-sample path.
std::vector<std::vector<float>> reference_probs(const tabular::TabularPredictor& model,
                                                const InputBank& bank, std::size_t out_dim) {
  tabular::InferenceWorkspace ws;
  std::vector<std::vector<float>> ref(bank.count, std::vector<float>(out_dim));
  for (std::size_t i = 0; i < bank.count; ++i) {
    model.forward_sample_into(bank.addr_of(i), bank.pc_of(i), ref[i].data(), ws);
  }
  return ref;
}

ServeConfig tiny_config(std::size_t shards) {
  ServeConfig c;
  c.shards = shards;
  c.queue_capacity = 64;
  c.completion_capacity = 64;
  c.batch_cap = 8;
  return c;
}

TEST(PrefetchServer, ServedProbsMatchDirectForwardBitExact) {
  const nn::ModelConfig arch = tiny_arch();
  const auto model = tiny_predictor(1, arch);
  const InputBank bank(arch, 32);
  const auto ref = reference_probs(*model, bank, arch.out_dim);

  PrefetchServer server(model, tiny_config(2));
  constexpr std::size_t kClients = 3, kPerClient = 400;
  std::atomic<std::uint64_t> mismatches{0}, completed{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = server.connect();
      std::vector<float> probs(arch.out_dim);
      Response r;
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t input = (c * kPerClient + i) % bank.count;
        std::uint64_t id = 0;
        while ((id = session->submit(bank.addr_of(input), bank.pc_of(input), probs.data())) == 0) {
          std::this_thread::yield();
        }
        while (!session->poll(r)) std::this_thread::yield();  // window of 1
        ++completed;
        if (r.trace_id != id ||
            std::memcmp(probs.data(), ref[input].data(), arch.out_dim * sizeof(float)) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(completed.load(), kClients * kPerClient);
  EXPECT_EQ(mismatches.load(), 0u);

  const ServeStatsSummary stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.avg_batch, 0.0);
  EXPECT_LE(stats.p50_ns, stats.p99_ns);
  EXPECT_EQ(stats.shards.size(), 2u);
}

TEST(PrefetchServer, SessionsRoundRobinAcrossShards) {
  const auto model = tiny_predictor(1, tiny_arch());
  PrefetchServer server(model, tiny_config(2));
  auto s0 = server.connect();
  auto s1 = server.connect();
  auto s2 = server.connect();
  EXPECT_EQ(s0->shard(), 0u);
  EXPECT_EQ(s1->shard(), 1u);
  EXPECT_EQ(s2->shard(), 0u);
}

TEST(PrefetchServer, SubmitReturnsZeroOnIngressBackpressure) {
  const nn::ModelConfig arch = tiny_arch();
  const auto model = tiny_predictor(1, arch);
  ServeConfig config = tiny_config(1);
  config.queue_capacity = 2;  // rounds to a 2-slot ingress ring
  config.completion_capacity = 4096;
  PrefetchServer server(model, config);
  auto session = server.connect();

  const InputBank bank(arch, 1);
  std::vector<std::vector<float>> probs(4096, std::vector<float>(arch.out_dim));
  std::uint64_t rejected = 0, accepted = 0;
  Response r;
  // Flood the 2-slot ring without yielding; the shard thread can't drain
  // fast enough forever, so submit must reject (return 0) at least once.
  for (std::size_t i = 0; i < probs.size(); ++i) {
    while (session->submit(bank.addr_of(0), bank.pc_of(0), probs[i].data()) == 0) {
      ++rejected;
      if (rejected > 1) break;  // proven; stop flooding
    }
    ++accepted;
    if (rejected > 1) break;
  }
  while (session->in_flight() > 0) {
    if (!session->poll(r)) std::this_thread::yield();
  }
  EXPECT_GT(rejected, 0u) << "a 2-slot ring absorbed " << accepted << " unanswered submissions";
}

TEST(PrefetchServer, HotSwapLosesNothingAndNeverServesATornArtifact) {
  const nn::ModelConfig arch = tiny_arch();
  const auto model_a = tiny_predictor(1, arch);
  const auto model_b = tiny_predictor(5000, arch);
  const InputBank bank(arch, 16);
  const auto ref_a = reference_probs(*model_a, bank, arch.out_dim);
  const auto ref_b = reference_probs(*model_b, bank, arch.out_dim);
  // Distinct tables must give distinct answers, or the test proves nothing.
  ASSERT_NE(std::memcmp(ref_a[0].data(), ref_b[0].data(), arch.out_dim * sizeof(float)), 0);

  PrefetchServer server(model_a, tiny_config(1));

  // epoch -> which model the server published under it (0 = A, 1 = B).
  std::mutex epochs_mu;
  std::map<std::uint64_t, int> epoch_model{{server.epoch(), 0}};

  constexpr std::size_t kClients = 2, kPerClient = 3000;
  std::atomic<std::uint64_t> completed{0}, torn{0}, wrong_epoch_probs{0};
  std::set<std::uint64_t> epochs_seen;
  std::mutex seen_mu;

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = server.connect();
      std::vector<float> probs(arch.out_dim);
      Response r;
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t input = (c + i) % bank.count;
        while (session->submit(bank.addr_of(input), bank.pc_of(input), probs.data()) == 0) {
          std::this_thread::yield();
        }
        while (!session->poll(r)) std::this_thread::yield();
        ++completed;
        const bool is_a =
            std::memcmp(probs.data(), ref_a[input].data(), arch.out_dim * sizeof(float)) == 0;
        const bool is_b =
            std::memcmp(probs.data(), ref_b[input].data(), arch.out_dim * sizeof(float)) == 0;
        if (!is_a && !is_b) {
          ++torn;  // matches neither artifact: a torn or corrupted serve
        } else {
          int expected;
          {
            std::lock_guard<std::mutex> lock(epochs_mu);
            ASSERT_TRUE(epoch_model.count(r.epoch)) << "response under unpublished epoch";
            expected = epoch_model[r.epoch];
          }
          if ((expected == 0 && !is_a) || (expected == 1 && !is_b)) ++wrong_epoch_probs;
        }
        {
          std::lock_guard<std::mutex> lock(seen_mu);
          epochs_seen.insert(r.epoch);
        }
      }
    });
  }

  // Flip the model repeatedly mid-load, spaced by completion progress so
  // every epoch actually serves traffic.
  const std::uint64_t total = kClients * kPerClient;
  for (int flip = 1; flip <= 4; ++flip) {
    const std::uint64_t threshold = total * flip / 5;
    while (completed.load() < threshold) std::this_thread::yield();
    const auto& next = (flip % 2 == 1) ? model_b : model_a;
    std::lock_guard<std::mutex> lock(epochs_mu);
    const std::uint64_t e = server.swap_model(next);
    epoch_model[e] = flip % 2;
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(completed.load(), total);       // nothing lost across 4 swaps
  EXPECT_EQ(torn.load(), 0u);               // every answer is exactly A or B
  EXPECT_EQ(wrong_epoch_probs.load(), 0u);  // and matches its stamped epoch
  EXPECT_GE(epochs_seen.size(), 2u) << "load finished before any swap took effect";

  std::uint64_t reloads = 0;
  for (const auto& s : server.stats().shards) reloads += s.reloads;
  EXPECT_GE(reloads, 1u);
}

TEST(PrefetchServer, SwapRejectsGeometryMismatch) {
  const auto model = tiny_predictor(1, tiny_arch());
  nn::ModelConfig wide = tiny_arch();
  wide.out_dim = 32;  // client probs buffers are sized to out_dim = 16
  const auto mismatched = tiny_predictor(2, wide);

  PrefetchServer server(model, tiny_config(1));
  const std::uint64_t before = server.epoch();
  EXPECT_THROW(server.swap_model(mismatched), std::invalid_argument);
  EXPECT_EQ(server.epoch(), before);  // failed swap publishes nothing
}

TEST(PrefetchServer, StopIsIdempotentAndStatsSurviveIt) {
  const nn::ModelConfig arch = tiny_arch();
  const auto model = tiny_predictor(1, arch);
  PrefetchServer server(model, tiny_config(1));
  auto session = server.connect();
  const InputBank bank(arch, 1);
  std::vector<float> probs(arch.out_dim);
  Response r;
  while (session->submit(bank.addr_of(0), bank.pc_of(0), probs.data()) == 0) {
    std::this_thread::yield();
  }
  while (!session->poll(r)) std::this_thread::yield();
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(server.stats().requests, 1u);
}

TEST(PrefetchServer, RejectsUnboundedSizesBeforeStartingThreads) {
  const auto model = tiny_predictor(1, tiny_arch());
  // The largest value a flag or DART_SERVE_* knob can carry; "-1" is
  // refused by common::parse_uint before it reaches these bounds.
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  for (std::size_t ServeConfig::*field :
       {&ServeConfig::queue_capacity, &ServeConfig::completion_capacity, &ServeConfig::batch_cap}) {
    for (const std::size_t value : {kMaxRingCapacity + 1, huge}) {
      ServeConfig config = tiny_config(1);
      config.*field = value;
      EXPECT_THROW(std::make_unique<PrefetchServer>(model, config), std::invalid_argument);
    }
  }
  ServeConfig config = tiny_config(1);
  config.shards = huge;
  EXPECT_THROW(std::make_unique<PrefetchServer>(model, config), std::invalid_argument);
  // The timers: past these the deadline stamp and the watchdog's sleep wrap.
  for (const std::uint64_t value :
       {common::kMaxTimerSeconds * 1000 * 1000 + 1, std::uint64_t{huge}}) {
    config = tiny_config(1);
    config.deadline_us = value;
    EXPECT_THROW(std::make_unique<PrefetchServer>(model, config), std::invalid_argument);
  }
  for (const std::size_t value : {common::kMaxTimerSeconds * 1000 + 1, huge}) {
    config = tiny_config(1);
    config.watchdog_ms = value;
    EXPECT_THROW(std::make_unique<PrefetchServer>(model, config), std::invalid_argument);
  }
  config = tiny_config(1);

  // The repo benchmark's serve-open configuration stays inside the bounds.
  config.shards = 2;
  config.queue_capacity = 2048;
  PrefetchServer server(model, config);
  EXPECT_NE(server.connect(1024), nullptr);
  EXPECT_THROW(server.connect(huge), std::invalid_argument);
}

/// A small load whose feature geometry matches tiny_arch().
LoadOptions tiny_load(const nn::ModelConfig& arch) {
  LoadOptions load;
  load.streams = 2;
  load.requests_per_stream = 400;
  load.rate_per_s = 2000.0;
  load.trace_accesses = 4096;
  load.prep.history = arch.seq_len;
  load.prep.addr_segments = arch.addr_dim;
  load.prep.pc_segments = arch.pc_dim;
  load.prep.bitmap_size = arch.out_dim;
  return load;
}

TEST(RunClientLoad, OpenLoopAccountsForEveryPlannedRequest) {
  const nn::ModelConfig arch = tiny_arch();
  ServeConfig config;
  config.shards = 2;
  PrefetchServer server(tiny_predictor(1, arch), config);
  const LoadOptions load = tiny_load(arch);
  const LoadReport report = run_client_load(server, load);

  const std::uint64_t planned = load.streams * load.requests_per_stream;
  EXPECT_EQ(report.submitted, planned);
  EXPECT_EQ(report.completed, planned);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.missed, 0u);
  EXPECT_EQ(report.id_mismatches, 0u);
  const ServeStatsSummary stats = server.stats();
  EXPECT_EQ(stats.requests, report.completed);
  EXPECT_EQ(stats.deadline_missed, 0u);
  EXPECT_EQ(stats.watchdog_restarts, 0u);
  EXPECT_EQ(stats.reload_rejected, 0u);
  EXPECT_TRUE(std::isfinite(report.p50_us));
  EXPECT_TRUE(std::isfinite(report.p99_us));
  EXPECT_LE(report.p50_us, report.p99_us);
}

TEST(RunClientLoad, RejectsUnboundedLoadShapesBeforeConnecting) {
  const nn::ModelConfig arch = tiny_arch();
  PrefetchServer server(tiny_predictor(1, arch), tiny_config(2));
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<LoadOptions> bad;
  for (const std::size_t streams : {std::size_t{0}, kMaxStreams + 1, huge}) {
    bad.push_back(tiny_load(arch));
    bad.back().streams = streams;
  }
  for (const std::size_t requests : {std::size_t{0}, kMaxPlannedRequests / 2 + 1, huge}) {
    bad.push_back(tiny_load(arch));
    bad.back().requests_per_stream = requests;  // 2 streams: huge would wrap the product
  }
  // 800 planned requests: 0.1/s and 1e-12/s spread them past kMaxScheduleSeconds.
  for (const double rate : {0.0, -1.0, nan, inf, 0.1, 1e-12}) {
    bad.push_back(tiny_load(arch));
    bad.back().rate_per_s = rate;
  }
  for (const std::size_t accesses : {std::size_t{0}, kMaxTraceAccesses + 1}) {
    bad.push_back(tiny_load(arch));
    bad.back().trace_accesses = accesses;
  }
  for (const LoadOptions& load : bad) {
    EXPECT_THROW(run_client_load(server, load), std::invalid_argument);
  }
  // No session was opened: the next one still lands on shard 0.
  EXPECT_EQ(server.connect()->shard(), 0u);
}

TEST(RunClientLoad, RejectsMismatchedPreprocessGeometry) {
  const auto model = tiny_predictor(1, tiny_arch());
  PrefetchServer server(model, tiny_config(1));
  LoadOptions load;  // default prep (history 8 etc.) != tiny_arch geometry
  load.streams = 1;
  load.requests_per_stream = 1;
  EXPECT_THROW(run_client_load(server, load), std::invalid_argument);
}

// The serialization audit behind the serve design (sim/prefetcher.hpp):
// shards share one predictor with no lock, which is sound only for
// prefetchers whose prediction path is const. DART's tabular predictor
// qualifies; the activation-caching NN baselines do not and must keep
// reporting that they need serialization.
TEST(SharesMutableModelAudit, DartIsShareableNnBaselinesAreNot) {
  const nn::ModelConfig arch = tiny_arch();
  prefetch::NnAdapterOptions opts;

  prefetch::DartPrefetcher dart_pf(tiny_predictor(1, arch), opts);
  EXPECT_FALSE(dart_pf.shares_mutable_model());

  prefetch::AttentionPrefetcher attn_pf(std::make_shared<nn::AddressPredictor>(arch, 1), opts,
                                        "TransFetch");
  EXPECT_TRUE(attn_pf.shares_mutable_model());

  prefetch::LstmPrefetcher lstm_pf(
      std::make_shared<nn::LstmPredictor>(arch.addr_dim, arch.pc_dim, 16, arch.out_dim, 1), opts,
      "Voyager");
  EXPECT_TRUE(lstm_pf.shares_mutable_model());
}

}  // namespace
}  // namespace dart::serve
