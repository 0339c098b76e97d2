// Tests for model checkpointing and the fused multi-layer table (the
// paper's §VIII future-work feature).
#include <gtest/gtest.h>

#include <cstdio>

#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "nn/transformer.hpp"
#include "tabular/complexity.hpp"
#include "tabular/linear_kernel.hpp"

namespace dart {
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

TEST(Serialize, RoundTripsAddressPredictor) {
  const std::string path = "/tmp/dart_ckpt_roundtrip.bin";
  nn::AddressPredictor a(tiny_arch(), 3);
  ASSERT_TRUE(nn::save_model(a, path));
  nn::AddressPredictor b(tiny_arch(), 99);  // different init
  nn::load_model(b, path);
  nn::Tensor addr = nn::Tensor::randn({2, 4, 4}, 0.5f, 5);
  nn::Tensor pc = nn::Tensor::randn({2, 4, 4}, 0.5f, 6);
  nn::Tensor ya = a.forward(addr, pc);
  nn::Tensor yb = b.forward(addr, pc);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsWrongArchitecture) {
  const std::string path = "/tmp/dart_ckpt_badarch.bin";
  nn::AddressPredictor a(tiny_arch(), 3);
  ASSERT_TRUE(nn::save_model(a, path));
  nn::ModelConfig other = tiny_arch();
  other.dim = 16;  // different shapes
  nn::AddressPredictor b(other, 3);
  EXPECT_THROW(nn::load_model(b, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsMissingAndCorruptFiles) {
  nn::AddressPredictor a(tiny_arch(), 3);
  EXPECT_THROW(nn::load_model(a, "/tmp/does_not_exist_dart.bin"), std::runtime_error);
  const std::string path = "/tmp/dart_ckpt_corrupt.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_THROW(nn::load_model(a, path), std::runtime_error);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- FusedTable

/// A one-codebook kernel config with K = `k` and the fused table's
/// long-standing defaults: 12 k-means iterations, seed 47, exact encoder.
tabular::KernelConfig fused_config(std::size_t k) {
  tabular::KernelConfig cfg;
  cfg.num_prototypes = k;
  cfg.num_subspaces = 1;
  cfg.encoder = pq::EncoderKind::kExact;
  cfg.kmeans_iters = 12;
  cfg.seed = 47;
  return cfg;
}

TEST(FusedTable, ExactOnPrototypeInputs) {
  // Identity stack: table rows are the prototypes themselves; querying a
  // training point equal to a prototype must return it exactly.
  nn::Tensor rows({8, 4});
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) rows.at(i, j) = static_cast<float>(i * 7 + j);
  }
  tabular::KernelConfig cfg = fused_config(8);
  cfg.kmeans_iters = 25;
  const tabular::LinearKernel fused =
      tabular::LinearKernel::fused(4, 4, [](const nn::Tensor& x) { return x; }, rows, cfg);
  nn::Tensor out = fused.query(rows);
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_NEAR(out[i], rows[i], 1e-3f);
}

TEST(FusedTable, ApproximatesAnFfnStack) {
  // Fuse hidden -> ReLU -> out into one table and compare against the exact
  // stack on held-out points drawn from the same distribution.
  nn::FeedForward ffn(6, 12, 7);
  auto stack = [&](const nn::Tensor& x) { return ffn.forward(x); };
  nn::Tensor train = nn::Tensor::randn({2048, 6}, 1.0f, 8);
  const tabular::LinearKernel fused =
      tabular::LinearKernel::fused(6, 6, stack, train, fused_config(512));
  nn::Tensor test = nn::Tensor::randn({128, 6}, 1.0f, 9);
  nn::Tensor approx = fused.query(test);
  nn::Tensor exact = ffn.forward(test);
  EXPECT_GT(nn::ops::cosine_similarity(approx, exact), 0.7);
}

TEST(FusedTable, MoreVqPrototypesReduceError) {
  nn::FeedForward ffn(6, 12, 11);
  auto stack = [&](const nn::Tensor& x) { return ffn.forward(x); };
  nn::Tensor train = nn::Tensor::randn({2048, 6}, 1.0f, 12);
  nn::Tensor test = nn::Tensor::randn({128, 6}, 1.0f, 13);
  nn::Tensor exact = ffn.forward(test);
  auto mse_for = [&](std::size_t k) {
    const tabular::LinearKernel fused =
        tabular::LinearKernel::fused(6, 6, stack, train, fused_config(k));
    nn::Tensor approx = fused.query(test);
    double mse = 0.0;
    for (std::size_t i = 0; i < approx.numel(); ++i) {
      const double d = approx[i] - exact[i];
      mse += d * d;
    }
    return mse;
  };
  EXPECT_LE(mse_for(512), mse_for(16) * 1.05);
}

TEST(FusedTable, LatencyBeatsTwoChainedLinearKernels) {
  nn::FeedForward ffn(8, 16, 21);
  auto stack = [&](const nn::Tensor& x) { return ffn.forward(x); };
  nn::Tensor train = nn::Tensor::randn({256, 8}, 1.0f, 22);
  const tabular::LinearKernel fused =
      tabular::LinearKernel::fused(8, 8, stack, train, fused_config(256));
  // Two linear kernels at K=128, C=2 cost 2*(7+1+1) = 18 cycles; the fused
  // table at K=256 costs log2(256)+1 = 9.
  EXPECT_LT(tabular::linear_kernel_latency(fused.num_prototypes(), fused.num_subspaces()),
            2 * tabular::linear_kernel_latency(128, 2));
}

TEST(FusedTable, RejectsBadShapes) {
  auto identity = [](const nn::Tensor& x) { return x; };
  nn::Tensor train({10, 3});
  EXPECT_THROW(tabular::LinearKernel::fused(4, 4, identity, train, fused_config(4)),
               std::invalid_argument);
  // One codebook only: a fused table does not decompose across subspaces.
  nn::Tensor rows = nn::Tensor::randn({10, 4}, 1.0f, 23);
  tabular::KernelConfig two = fused_config(4);
  two.num_subspaces = 2;
  EXPECT_THROW(tabular::LinearKernel::fused(4, 4, identity, rows, two), std::invalid_argument);
  // The stack must produce [K, DO].
  EXPECT_THROW(tabular::LinearKernel::fused(4, 3, identity, rows, fused_config(4)),
               std::invalid_argument);
}

}  // namespace
}  // namespace dart
