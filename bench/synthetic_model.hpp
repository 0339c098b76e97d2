// A training-free synthetic TabularPredictor for throughput measurement
// (bench/e2e, tests): paper-shaped kernels whose tables
// are learned from random activations. k-means still runs, so encoders and
// tables are structurally realistic, but table *contents* do not affect
// query cost — only the shapes do — which is exactly what a throughput
// measurement needs.
#pragma once

#include <memory>

#include "nn/tensor.hpp"
#include "pq/encoder.hpp"
#include "tabular/tabular_predictor.hpp"

namespace dart::bench {

/// Builds a predictor of architecture `arch` with K prototypes / C
/// subspaces per linear kernel (attention kernels use K with ck=ct=2),
/// deterministically from `seed`. The simulated deployment uses the
/// O(log K) hash-tree encoder (DESIGN.md §3); exact encoding would
/// dominate the measurement.
inline tabular::TabularPredictor synthetic_predictor(const nn::ModelConfig& arch,
                                                     std::size_t k = 128, std::size_t c = 2,
                                                     std::uint64_t seed = 1000) {
  const std::size_t m = 512;  // training rows for prototype learning
  auto next = [&seed] { return seed += 17; };

  tabular::KernelConfig lin;
  lin.num_prototypes = k;
  lin.num_subspaces = c;
  lin.kmeans_iters = 4;
  lin.encoder = pq::EncoderKind::kHashTree;

  auto make_linear = [&](std::size_t dout, std::size_t din) {
    nn::Tensor w = nn::Tensor::randn({dout, din}, 0.5f, next());
    nn::Tensor b = nn::Tensor::randn({dout}, 0.2f, next());
    nn::Tensor rows = nn::Tensor::randn({m, din}, 1.0f, next());
    tabular::KernelConfig cfg = lin;
    cfg.seed = next();
    return std::make_unique<tabular::LinearKernel>(w, b, rows, cfg);
  };

  tabular::TabularPredictor tab(arch);
  tab.addr_kernel = make_linear(arch.dim, arch.addr_dim);
  tab.pc_kernel = make_linear(arch.dim, arch.pc_dim);
  tab.pos_encoding = nn::Tensor::randn({arch.seq_len, arch.dim}, 0.1f, next());
  const std::size_t dh = arch.dim / arch.heads;
  for (std::size_t l = 0; l < arch.layers; ++l) {
    tabular::TabularEncoderLayer layer;
    layer.qkv = make_linear(3 * arch.dim, arch.dim);
    for (std::size_t h = 0; h < arch.heads; ++h) {
      nn::Tensor q = nn::Tensor::randn({m, arch.seq_len, dh}, 1.0f, next());
      nn::Tensor kk = nn::Tensor::randn({m, arch.seq_len, dh}, 1.0f, next());
      nn::Tensor v = nn::Tensor::randn({m, arch.seq_len, dh}, 1.0f, next());
      tabular::AttentionKernelConfig acfg;
      acfg.num_prototypes = k;
      acfg.ck = 2;
      acfg.ct = 2;
      acfg.kmeans_iters = 4;
      acfg.encoder = pq::EncoderKind::kHashTree;
      acfg.seed = next();
      layer.heads.push_back(std::make_unique<tabular::AttentionKernel>(q, kk, v, acfg));
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
    tab.layers.push_back(std::move(layer));
  }
  tab.final_ln.gamma = nn::Tensor::randn({arch.dim}, 0.1f, next());
  tab.final_ln.beta = nn::Tensor::randn({arch.dim}, 0.1f, next());
  for (std::size_t j = 0; j < arch.dim; ++j) tab.final_ln.gamma[j] += 1.0f;
  tab.head_kernel = make_linear(arch.out_dim, arch.dim);
  return tab;
}

}  // namespace dart::bench
