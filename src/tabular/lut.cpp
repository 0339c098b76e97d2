#include "tabular/lut.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace dart::tabular {

SigmoidLut::SigmoidLut() {
  // Entry i holds sigmoid at the midpoint of its cell, halving the
  // worst-case quantization error vs sampling at cell edges.
  const float step = 2.0f * kRange / static_cast<float>(kEntries);
  inv_step_ = 1.0f / step;
  for (std::size_t i = 0; i < kEntries; ++i) {
    const float x = -kRange + (static_cast<float>(i) + 0.5f) * step;
    table_[i] = 1.0f / (1.0f + std::exp(-x));
  }
}

void SigmoidLut::set_table(const float* values, std::size_t n) {
  if (n != kEntries) throw std::invalid_argument("SigmoidLut::set_table: size mismatch");
  std::copy(values, values + n, table_.begin());
}

void SigmoidLut::apply_batch(const float* x, std::size_t n, float* out) const {
#if defined(__AVX512F__)
  // operator() per lane: truncate (x+8)*inv_step to int, cap at the last
  // entry, gather, then clamp the tails. A NaN converts to 0x80000000,
  // which the unsigned min caps to 255 — the entry the scalar cast picks.
  const __m512 lo = _mm512_set1_ps(-kRange);
  const __m512 hi = _mm512_set1_ps(kRange);
  const __m512 inv = _mm512_set1_ps(inv_step_);
  const __m512i last = _mm512_set1_epi32(static_cast<int>(kEntries - 1));
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 k =
        n - i >= 16 ? __mmask16(0xFFFF) : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 v = _mm512_maskz_loadu_ps(k, x + i);
    const __m512i idx = _mm512_maskz_min_epu32(
        k, _mm512_maskz_cvttps_epi32(k, _mm512_mul_ps(_mm512_add_ps(v, hi), inv)), last);
    __m512 r = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), k, idx, table_.data(), 4);
    r = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(v, lo, _CMP_LE_OQ), r, _mm512_setzero_ps());
    r = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(v, hi, _CMP_GE_OQ), r, _mm512_set1_ps(1.0f));
    _mm512_mask_storeu_ps(out + i, k, r);
  }
#else
  for (std::size_t i = 0; i < n; ++i) out[i] = (*this)(x[i]);
#endif
}

nn::Tensor SigmoidLut::apply(const nn::Tensor& x) const {
  nn::Tensor out(x.shape());
  apply_batch(x.data(), x.numel(), out.data());
  return out;
}

}  // namespace dart::tabular
