// LSTM layer and an LSTM-based memory-access predictor.
//
// This is the substrate for the Voyager-like baseline (Shi et al.,
// ASPLOS'21): the original Voyager uses a hierarchy of LSTMs over page and
// offset streams; we reproduce its essential property for the paper's
// evaluation — an accurate but *sequential* (non-parallelizable) recurrent
// predictor with very high inference latency (Table IX: 27.7K cycles).
#pragma once

#include <memory>
#include <vector>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace dart::nn {

/// Single-layer LSTM over [B, T, Din]; returns the full hidden sequence
/// [B, T, H]. Gates are fused into one [4H x Din] / [4H x H] pair.
class Lstm : public Module {
 public:
  Lstm(std::size_t in_dim, std::size_t hidden_dim, std::uint64_t seed,
       std::string name = "lstm");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&wx_, &wh_, &bias_}; }

  std::size_t hidden_dim() const { return hidden_; }
  std::size_t in_dim() const { return in_dim_; }

 private:
  std::size_t in_dim_;
  std::size_t hidden_;
  Param wx_;    // [4H, Din]
  Param wh_;    // [4H, H]
  Param bias_;  // [4H]

  // Cached per-step activations for BPTT.
  Tensor cached_x_;       // [B, T, Din]
  Tensor cached_gates_;   // [B, T, 4H] post-activation (i,f,g,o)
  Tensor cached_c_;       // [B, T, H] cell states
  Tensor cached_h_;       // [B, T, H] hidden states
  Tensor cached_tanh_c_;  // [B, T, H]
};

/// LSTM-based multi-label predictor mirroring AddressPredictor's interface:
/// segmented addr+pc -> embedding -> LSTM -> last hidden -> logits [B, DO].
class LstmPredictor {
 public:
  LstmPredictor(std::size_t addr_dim, std::size_t pc_dim, std::size_t hidden,
                std::size_t out_dim, std::uint64_t seed);

  Tensor forward(const Tensor& addr, const Tensor& pc);
  void backward(const Tensor& d_logits);
  std::vector<Param*> params();
  void zero_grad();
  std::size_t num_params();
  /// DO: width of the logits `forward` returns.
  std::size_t out_dim() const { return out_dim_; }

 private:
  std::size_t out_dim_;
  std::unique_ptr<Linear> addr_embed_;
  std::unique_ptr<Linear> pc_embed_;
  std::unique_ptr<Lstm> lstm_;
  std::unique_ptr<Linear> head_;
  std::size_t cached_b_ = 0, cached_t_ = 0;
};

}  // namespace dart::nn
