// Fixed lookup-table approximation of the output Sigmoid (Algorithm 1,
// line 16; Meher [46]): uniform 256-entry table over [-8, 8], clamped
// outside. One comparison + one lookup per scalar — no transcendentals at
// query time. The inverse cell width is precomputed at construction; the
// scalar operator is inline, and `apply_batch` runs 16 lanes at a time on
// AVX-512 hosts with results bit-identical to it.
#pragma once

#include <array>
#include <cstddef>

#include "nn/tensor.hpp"

namespace dart::tabular {

class SigmoidLut {
 public:
  static constexpr std::size_t kEntries = 256;
  static constexpr float kRange = 8.0f;  ///< covers [-8, 8]

  SigmoidLut();

  /// LUT-approximated sigmoid of a scalar.
  float operator()(float x) const {
    if (x <= -kRange) return 0.0f;
    if (x >= kRange) return 1.0f;
    auto idx = static_cast<std::size_t>((x + kRange) * inv_step_);
    if (idx >= kEntries) idx = kEntries - 1;
    return table_[idx];
  }

  /// Applies elementwise to `n` scalars at `x`, writing to `out` (which may
  /// alias `x` — used in-place on workspace buffers by the predictor).
  /// Every output equals `(*this)(x[i])` bit for bit, NaN included.
  void apply_batch(const float* x, std::size_t n, float* out) const;

  /// Applies elementwise to a tensor (out-of-place).
  nn::Tensor apply(const nn::Tensor& x) const;

  /// Worst-case absolute error vs the exact sigmoid over the covered range
  /// (useful for tests; ~ kRange / kEntries * max|σ'| = 1/128 * 1/4).
  static constexpr float max_abs_error() { return (2.0f * kRange / kEntries) * 0.25f; }

  std::size_t table_bytes() const { return kEntries * sizeof(float); }

  /// Raw table contents (serialization).
  const float* table_data() const { return table_.data(); }

  /// Adopts `n` (= kEntries) stored table values verbatim — used when
  /// reloading a `.dart` artifact, so served predictions stay bit-exact
  /// with the producing host even if its libm rounds std::exp differently.
  /// Throws std::invalid_argument on a size mismatch.
  void set_table(const float* values, std::size_t n);

 private:
  std::array<float, kEntries> table_{};
  float inv_step_ = 0.0f;  ///< kEntries / (2*kRange), set once in the ctor
};

}  // namespace dart::tabular
