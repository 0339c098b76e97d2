#include "tabular/tabular_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"

#if defined(__AVX512F__) && defined(__FMA__)
#include <immintrin.h>
#define DART_LN_SIMD 1
#else
#define DART_LN_SIMD 0
#endif

namespace dart::tabular {

namespace {

// Layer-major sub-blocks of at most 16 samples: long enough to amortize
// encoder calls (128+ rows each), small enough that the activation buffers
// stay L2-resident — larger blocks measurably degrade (the seed's "slower
// past batch 16" effect was this spill).
constexpr std::size_t kMaxBlockSamples = 16;

}  // namespace

nn::Tensor LnParams::apply(const nn::Tensor& x) const {
  nn::Tensor y(x.shape());
  apply_into(x.data(), y.data(), x.numel() / gamma.numel());
  return y;
}

#if DART_LN_SIMD
namespace {

// The zero-masking forms below, with a full mask, are the same
// instructions; they spare GCC 12 a false -Wmaybe-uninitialized.

/// Floats j..j+3 of four rows, row r's in 128-bit block r.
inline __m512 load_blocks(const float* const* r, std::size_t j) {
  __m512 v = _mm512_maskz_broadcast_f32x4(0xFFFF, _mm_loadu_ps(r[0] + j));
  v = _mm512_insertf32x4(v, _mm_loadu_ps(r[1] + j), 1);
  v = _mm512_insertf32x4(v, _mm_loadu_ps(r[2] + j), 2);
  return _mm512_insertf32x4(v, _mm_loadu_ps(r[3] + j), 3);
}

/// Float j of four rows, row r's in lane r.
inline __m128 load_lanes(const float* const* r, std::size_t j) {
  return _mm_setr_ps(r[0][j], r[1][j], r[2][j], r[3][j]);
}

/// Lane r: (l0+l1)+(l2+l3) of the lanes l0..l3 of 128-bit block r.
inline __m128 block_sums(__m512 s) {
  const __m512 pairs =
      _mm512_add_ps(s, _mm512_maskz_permute_ps(0xFFFF, s, _MM_SHUFFLE(2, 3, 0, 1)));
  const __m512 sums =
      _mm512_add_ps(pairs, _mm512_maskz_permute_ps(0xFFFF, pairs, _MM_SHUFFLE(1, 0, 3, 2)));
  const __m512i firsts = _mm512_setr_epi32(0, 4, 8, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
  return _mm512_maskz_extractf32x4_ps(0xF, _mm512_maskz_permutexvar_ps(0xFFFF, firsts, sums), 0);
}

/// Block r: four copies of lane r of `v`.
inline __m512 spread_lanes(__m128 v) {
  const __m512i lanes = _mm512_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3);
  return _mm512_maskz_permutexvar_ps(0xFFFF, lanes, _mm512_maskz_broadcast_f32x4(0xFFFF, v));
}

}  // namespace
#endif

void LnParams::apply_into(const float* x, float* y, std::size_t m) const {
  const std::size_t d = gamma.numel();
  const float* g = gamma.data();
  const float* b = beta.data();
#if DART_LN_SIMD
  // The scalar loop below in vector form, bit for bit with what a Release
  // build (GCC, -O3 -march=native) makes of it (DESIGN.md §6), four rows
  // per zmm: block r holds row r's four accumulators, summed in the same j
  // order and reduced as (s0+s1)+(s2+s3); lane r of an xmm then carries row
  // r's scalar tail, division and square root. The compiler vectorizes each
  // run of 32 floats of the `v += d*d` loop with the products rounded on
  // their own, and contracts the iterations after the last full run, the
  // tail and `t*g + b` into FMAs (-ffp-contract=fast is GCC's default).
  // Two zmm per step keep two dependency chains in flight; a short last
  // step repeats its last row and stores real rows only.
  constexpr std::size_t kRows = 8;
  const std::size_t runs_end = d / 32 * 32;
  const __m128 width = _mm_set1_ps(static_cast<float>(d));
  for (std::size_t i0 = 0; i0 < m; i0 += kRows) {
    const std::size_t c = std::min(kRows, m - i0);
    const float* rows[kRows];
    for (std::size_t r = 0; r < kRows; ++r) rows[r] = x + (i0 + std::min(r, c - 1)) * d;
    __m512 s4[2] = {_mm512_setzero_ps(), _mm512_setzero_ps()};
    std::size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      for (int h = 0; h < 2; ++h) s4[h] = _mm512_add_ps(s4[h], load_blocks(rows + 4 * h, j));
    }
    __m128 mean[2], inv[2];
    __m512 mean4[2], v4[2];
    for (int h = 0; h < 2; ++h) {
      mean[h] = block_sums(s4[h]);
      for (std::size_t jj = j; jj < d; ++jj) {
        mean[h] = _mm_add_ps(mean[h], load_lanes(rows + 4 * h, jj));
      }
      mean[h] = _mm_div_ps(mean[h], width);
      mean4[h] = spread_lanes(mean[h]);
      v4[h] = _mm512_setzero_ps();
    }
    for (j = 0; j < runs_end; j += 4) {
      for (int h = 0; h < 2; ++h) {
        const __m512 dv = _mm512_sub_ps(load_blocks(rows + 4 * h, j), mean4[h]);
        __m512 sq = _mm512_mul_ps(dv, dv);
        asm("" : "+v"(sq));  // keeps the compiler from fusing this product
        v4[h] = _mm512_add_ps(v4[h], sq);
      }
    }
    for (; j + 4 <= d; j += 4) {
      for (int h = 0; h < 2; ++h) {
        const __m512 dv = _mm512_sub_ps(load_blocks(rows + 4 * h, j), mean4[h]);
        v4[h] = _mm512_fmadd_ps(dv, dv, v4[h]);
      }
    }
    for (int h = 0; h < 2; ++h) {
      __m128 var = block_sums(v4[h]);
      for (std::size_t jj = j; jj < d; ++jj) {
        const __m128 diff = _mm_sub_ps(load_lanes(rows + 4 * h, jj), mean[h]);
        var = _mm_fmadd_ps(diff, diff, var);
      }
      var = _mm_div_ps(var, width);
      inv[h] = _mm_div_ps(_mm_set1_ps(1.0f), _mm_sqrt_ps(_mm_add_ps(var, _mm_set1_ps(eps))));
    }
    alignas(16) float row_mean[kRows], row_inv[kRows];
    for (int h = 0; h < 2; ++h) {
      _mm_store_ps(row_mean + 4 * h, mean[h]);
      _mm_store_ps(row_inv + 4 * h, inv[h]);
    }
    for (std::size_t r = 0; r < c; ++r) {
      const float* row = rows[r];
      float* yrow = y + (i0 + r) * d;
      const __m512 mean16 = _mm512_set1_ps(row_mean[r]);
      const __m512 inv16 = _mm512_set1_ps(row_inv[r]);
      for (std::size_t jj = 0; jj < d; jj += 16) {
        const __mmask16 k =
            d - jj >= 16 ? __mmask16(0xFFFF) : static_cast<__mmask16>((1u << (d - jj)) - 1u);
        const __m512 t =
            _mm512_mul_ps(_mm512_sub_ps(_mm512_maskz_loadu_ps(k, row + jj), mean16), inv16);
        _mm512_mask_storeu_ps(yrow + jj, k,
                              _mm512_fmadd_ps(t, _mm512_maskz_loadu_ps(k, g + jj),
                                              _mm512_maskz_loadu_ps(k, b + jj)));
      }
    }
  }
#else
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * d;
    float* yrow = y + i * d;
    // 4-lane reductions: strict-FP serial sums chain at add latency; four
    // independent accumulators pipeline (and match what a vectorized sum
    // would compute, deterministically).
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    std::size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      s0 += row[j];
      s1 += row[j + 1];
      s2 += row[j + 2];
      s3 += row[j + 3];
    }
    float mean = (s0 + s1) + (s2 + s3);
    for (; j < d; ++j) mean += row[j];
    mean /= static_cast<float>(d);
    float v0 = 0.0f, v1 = 0.0f, v2 = 0.0f, v3 = 0.0f;
    j = 0;
    for (; j + 4 <= d; j += 4) {
      const float d0 = row[j] - mean, d1 = row[j + 1] - mean;
      const float d2 = row[j + 2] - mean, d3 = row[j + 3] - mean;
      v0 += d0 * d0;
      v1 += d1 * d1;
      v2 += d2 * d2;
      v3 += d3 * d3;
    }
    float var = (v0 + v1) + (v2 + v3);
    for (; j < d; ++j) {
      const float diff = row[j] - mean;
      var += diff * diff;
    }
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    for (std::size_t jj = 0; jj < d; ++jj) {
      yrow[jj] = (row[jj] - mean) * inv * g[jj] + b[jj];
    }
  }
#endif
}

TabularArch TabularPredictor::tabular_arch(std::size_t samples) const {
  TabularArch ta;
  ta.seq_len = arch_.seq_len;
  ta.dim = arch_.dim;
  ta.ffn_dim = arch_.ffn_dim;
  ta.out_dim = arch_.out_dim;
  ta.heads = arch_.heads;
  ta.layers = arch_.layers;
  const std::size_t t = ta.seq_len;
  // Persistent per-sample activations: x, scratch, qkv, concat, hidden
  // (see forward_block_into). Attention adds a transient score matrix per
  // head.
  ta.float_slots = t * (2 * ta.dim + 3 * ta.dim + ta.dim + ta.ffn_dim) + ta.out_dim + t * t + 64;
  // Codes are transient per kernel call (mark/rewind), so the demand is the
  // max over kernels, not the sum.
  std::size_t codes = 0;
  auto linear = [&codes, t](const std::unique_ptr<LinearKernel>& k) {
    if (k) codes = std::max(codes, k->code_slots(t));
  };
  linear(addr_kernel);
  linear(pc_kernel);
  for (const auto& layer : layers) {
    linear(layer.qkv);
    for (const auto& h : layer.heads) {
      if (h) codes = std::max(codes, h->code_slots());
    }
    linear(layer.out_proj);
    linear(layer.ffn_hidden);
    linear(layer.ffn_out);
  }
  linear(head_kernel);
  ta.code_slots = codes + 16;
  const std::size_t block = std::min(samples, kMaxBlockSamples);
  ta.float_slots *= block;
  ta.code_slots *= block;
  return ta;
}

void TabularPredictor::forward_block_into(const float* addr, const float* pc, std::size_t n,
                                          float* probs_out, InferenceWorkspace& ws) const {
  const std::size_t t_len = arch_.seq_len;
  if (n > kMaxBlockSamples) {
    for (std::size_t s0 = 0; s0 < n; s0 += kMaxBlockSamples) {
      forward_block_into(addr + s0 * t_len * arch_.addr_dim, pc + s0 * t_len * arch_.pc_dim,
                         std::min(kMaxBlockSamples, n - s0), probs_out + s0 * arch_.out_dim, ws);
    }
    return;
  }
  const std::size_t d = arch_.dim;
  const std::size_t dh = d / arch_.heads;
  const std::size_t rows = n * t_len;  // all kernels operate row-wise
  const auto frame = ws.mark();

  // Every elementwise step is a kernel epilogue (DESIGN.md §6). Embedding:
  // pc's store adds the positional encoding (row t of every sample), and
  // addr's store adds that sum, x = addr + (pc + pos).
  float* x = ws.floats(rows * d);
  float* tmp = ws.floats(rows * d);  // reused for attention/FFN outputs
  pc_kernel->query_into(pc, rows, arch_.pc_dim, tmp, d, ws,
                        Epilogue::add(pos_encoding.data(), d, t_len));
  addr_kernel->query_into(addr, rows, arch_.addr_dim, x, d, ws, Epilogue::add(tmp, d));

  for (const auto& layer : layers) {
    const auto layer_frame = ws.mark();
    // Packed QKV projection [n*T, 3D]; heads query strided views of it —
    // no q/k/v split copies.
    float* qkv = ws.floats(rows * 3 * d);
    layer.qkv->query_into(x, rows, d, qkv, 3 * d, ws);
    float* concat = ws.floats(rows * d);
    for (std::size_t h = 0; h < layer.heads.size(); ++h) {
      layer.heads[h]->query_batch_into(qkv + h * dh, 3 * d,          // q
                                       qkv + d + h * dh, 3 * d,      // k
                                       qkv + 2 * d + h * dh, 3 * d,  // v
                                       n, concat + h * dh, d, ws);
    }
    // Output projection + residual, LN1 (normalized back into x).
    layer.out_proj->query_into(concat, rows, d, tmp, d, ws, Epilogue::add(x, d));
    layer.ln1.apply_into(tmp, x, rows);
    // FFN: hidden kernel + exact ReLU, output kernel + residual, LN2.
    float* hidden = ws.floats(rows * arch_.ffn_dim);
    layer.ffn_hidden->query_into(x, rows, d, hidden, arch_.ffn_dim, ws, Epilogue::relu());
    layer.ffn_out->query_into(hidden, rows, arch_.ffn_dim, tmp, d, ws, Epilogue::add(x, d));
    layer.ln2.apply_into(tmp, x, rows);
    ws.rewind(layer_frame);
  }

  final_ln.apply_into(x, x, rows);
  // Head: each sample's mean over its T rows, then the sigmoid LUT.
  const std::size_t out_d = arch_.out_dim;
  head_kernel->query_mean_into(x, n, t_len, d, probs_out, out_d, ws);
  sigmoid_lut.apply_batch(probs_out, n * out_d, probs_out);
  ws.rewind(frame);
}

nn::Tensor TabularPredictor::forward_sample(const nn::Tensor& addr, const nn::Tensor& pc) const {
  nn::Tensor probs({arch_.out_dim});
  // No ensure(): the thread-local arena grows to the peak demand on the
  // first call and is a pure bump allocator afterwards.
  forward_sample_into(addr.data(), pc.data(), probs.data(), thread_local_workspace());
  return probs;
}

nn::Tensor TabularPredictor::forward(const nn::Tensor& addr, const nn::Tensor& pc) const {
  if (addr.ndim() != 3) throw std::invalid_argument("TabularPredictor: addr must be [B,T,S]");
  const std::size_t b_sz = addr.dim(0);
  const std::size_t t_len = addr.dim(1);
  const std::size_t sa = addr.dim(2);
  const std::size_t sp = pc.dim(2);
  nn::Tensor out({b_sz, arch_.out_dim});
  if (b_sz == 0) return out;
  // The grain is one sub-block, so a batch of 16 or fewer never forks.
  const std::size_t nb = common::plan_blocks(b_sz, kMaxBlockSamples);
  const TabularArch ta = tabular_arch((b_sz + nb - 1) / nb);
  // The single top-level batch split (DESIGN.md §6): every kernel invoked
  // below this fork is serial, so the pool is never oversubscribed by
  // nested parallel_for calls.
  common::parallel_for_blocks(b_sz, [&](std::size_t, std::size_t b0, std::size_t b1) {
    InferenceWorkspace& ws = thread_local_workspace();
    ws.ensure(ta);
    forward_block_into(addr.data() + b0 * t_len * sa, pc.data() + b0 * t_len * sp, b1 - b0,
                       out.row(b0), ws);
  }, kMaxBlockSamples);
  return out;
}

std::size_t TabularPredictor::storage_bytes() const {
  std::size_t total = sigmoid_lut.table_bytes();
  auto add_kernel = [&total](const std::unique_ptr<LinearKernel>& k) {
    if (k) total += k->table_bytes();
  };
  add_kernel(addr_kernel);
  add_kernel(pc_kernel);
  total += pos_encoding.numel() * sizeof(float);
  for (const auto& layer : layers) {
    add_kernel(layer.qkv);
    for (const auto& h : layer.heads) total += h->table_bytes();
    add_kernel(layer.out_proj);
    add_kernel(layer.ffn_hidden);
    add_kernel(layer.ffn_out);
    total += (layer.ln1.gamma.numel() + layer.ln1.beta.numel() + layer.ln2.gamma.numel() +
              layer.ln2.beta.numel()) *
             sizeof(float);
  }
  total += (final_ln.gamma.numel() + final_ln.beta.numel()) * sizeof(float);
  add_kernel(head_kernel);
  return total;
}

}  // namespace dart::tabular
