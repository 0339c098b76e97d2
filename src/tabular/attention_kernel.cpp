#include "tabular/attention_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/ops.hpp"
#include "pq/kmeans.hpp"

#if defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>
#define DART_ATTN_SIMD 1
#else
#define DART_ATTN_SIMD 0
#endif

namespace dart::tabular {

namespace {

#if DART_ATTN_SIMD
/// The vector form of one output row of either lookup stage: out[j] = the
/// sum over subspaces c < count of tab_c[row_code[c * row_step] * k +
/// codes[c * code_step + j]] for j < len, where tab_c = tab + c * k * k.
/// Summed in c order, as the scalar passes do ("c = 0 sets, c >= 1 adds"),
/// with one masked gather per subspace and chunk of 16 outputs.
inline void gather_row(const float* tab, std::size_t k, const std::uint32_t* row_code,
                       std::size_t row_step, const std::uint32_t* codes, std::size_t code_step,
                       std::size_t count, std::size_t len, float* out) {
  std::size_t j = 0;
  for (; j + 8 < len; j += 16) {
    const auto m =
        len - j >= 16 ? __mmask16(0xFFFF) : static_cast<__mmask16>((1u << (len - j)) - 1u);
    __m512 acc = _mm512_setzero_ps();
    for (std::size_t c = 0; c < count; ++c) {
      const float* trow = tab + (c * k + row_code[c * row_step]) * k;
      const __m512i idx = _mm512_maskz_loadu_epi32(m, codes + c * code_step + j);
      const __m512 g = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m, idx, trow, 4);
      acc = c == 0 ? g : _mm512_add_ps(acc, g);
    }
    _mm512_mask_storeu_ps(out + j, m, acc);
  }
  if (j < len) {
    // At most 8 outputs left (a whole score row at T = 8): eight lanes
    // gather at half the cost of sixteen.
    const auto m = static_cast<__mmask8>((1u << (len - j)) - 1u);
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t c = 0; c < count; ++c) {
      const float* trow = tab + (c * k + row_code[c * row_step]) * k;
      const __m256i idx = _mm256_maskz_loadu_epi32(m, codes + c * code_step + j);
      const __m256 g = _mm256_mmask_i32gather_ps(_mm256_setzero_ps(), m, idx, trow, 4);
      acc = c == 0 ? g : _mm256_add_ps(acc, g);
    }
    _mm256_mask_storeu_ps(out + j, m, acc);
  }
}
#endif

/// Slices subspace `c` (width `sub`) out of [M, D] rows.
nn::Tensor slice_subspace(const nn::Tensor& rows, std::size_t c, std::size_t sub) {
  const std::size_t m = rows.dim(0);
  nn::Tensor out({m, sub});
  for (std::size_t i = 0; i < m; ++i) {
    const float* src = rows.row(i) + c * sub;
    std::copy(src, src + sub, out.row(i));
  }
  return out;
}

/// Pairwise prototype dot products over one subspace: table[i*K+j] = A_i·B_j.
void pairwise_dot(const nn::Tensor& a, const nn::Tensor& b, float* table) {
  const std::size_t k = a.dim(0), v = a.dim(1);
  for (std::size_t i = 0; i < k; ++i) {
    const float* arow = a.row(i);
    for (std::size_t j = 0; j < k; ++j) {
      const float* brow = b.row(j);
      float acc = 0.0f;
      for (std::size_t d = 0; d < v; ++d) acc += arow[d] * brow[d];
      table[i * k + j] = acc;
    }
  }
}

}  // namespace

AttentionKernel::AttentionKernel(const nn::Tensor& q, const nn::Tensor& k, const nn::Tensor& v,
                                 const AttentionKernelConfig& config)
    : config_(config) {
  if (q.ndim() != 3 || k.ndim() != 3 || v.ndim() != 3) {
    throw std::invalid_argument("AttentionKernel: inputs must be [N, T, Dk]");
  }
  const std::size_t n = q.dim(0);
  t_len_ = q.dim(1);
  dk_ = q.dim(2);
  if (dk_ % config.ck != 0) throw std::invalid_argument("AttentionKernel: Dk % Ck != 0");
  if (t_len_ % config.ct != 0) throw std::invalid_argument("AttentionKernel: T % Ct != 0");
  sub_dk_ = dk_ / config.ck;
  sub_t_ = t_len_ / config.ct;
  const std::size_t kp = config.num_prototypes;

  // ---- Stage 1: Q/K prototypes and the QK table (Eq. 12) ----------------
  nn::Tensor q_rows = q.reshaped({n * t_len_, dk_});
  nn::Tensor k_rows = k.reshaped({n * t_len_, dk_});
  qk_table_.assign(config.ck * kp * kp, 0.0f);
  q_encoders_.resize(config.ck);
  k_encoders_.resize(config.ck);
  common::parallel_for_each(config.ck, [&](std::size_t c) {
    pq::KMeansOptions km;
    km.max_iters = config_.kmeans_iters;
    km.seed = common::derive_seed(config_.seed, 100 + c);
    auto rq = pq::kmeans(slice_subspace(q_rows, c, sub_dk_), kp, km);
    km.seed = common::derive_seed(config_.seed, 200 + c);
    auto rk = pq::kmeans(slice_subspace(k_rows, c, sub_dk_), kp, km);
    pairwise_dot(rq.centroids, rk.centroids, qk_table_.data() + c * kp * kp);
    q_encoders_[c] = pq::make_encoder(config_.encoder, rq.centroids);
    k_encoders_[c] = pq::make_encoder(config_.encoder, rk.centroids);
  }, 1);

  // ---- Approximate training scores via stage-1 lookups (Eq. 13) ---------
  // For the softmax-at-query mode the activation is applied here, so the
  // stage-2 prototypes are learned on the distribution the query will see.
  nn::Tensor score_rows({n * t_len_, t_len_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk_));
  common::parallel_for_each(n, [&](std::size_t s) {
    // SoA codes per subspace; one encode_batch per (subspace, sample).
    std::vector<std::uint32_t> qc(config_.ck * t_len_), kc(config_.ck * t_len_);
    const float* qbase = q.data() + s * t_len_ * dk_;
    const float* kbase = k.data() + s * t_len_ * dk_;
    for (std::size_t c = 0; c < config_.ck; ++c) {
      q_encoders_[c]->encode_batch(qbase + c * sub_dk_, dk_, t_len_, qc.data() + c * t_len_);
      k_encoders_[c]->encode_batch(kbase + c * sub_dk_, dk_, t_len_, kc.data() + c * t_len_);
    }
    for (std::size_t t1 = 0; t1 < t_len_; ++t1) {
      float* out = score_rows.row(s * t_len_ + t1);
      for (std::size_t t2 = 0; t2 < t_len_; ++t2) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < config_.ck; ++c) {
          acc += qk_table_[c * kp * kp + qc[c * t_len_ + t1] * kp + kc[c * t_len_ + t2]];
        }
        out[t2] = acc;
      }
      if (config_.activation == AttentionActivation::kSoftmaxAtQuery) {
        // Scale + row softmax now; prototypes then live in probability space.
        float mx = out[0] * scale;
        for (std::size_t t2 = 0; t2 < t_len_; ++t2) mx = std::max(mx, out[t2] * scale);
        float denom = 0.0f;
        for (std::size_t t2 = 0; t2 < t_len_; ++t2) {
          out[t2] = std::exp(out[t2] * scale - mx);
          denom += out[t2];
        }
        for (std::size_t t2 = 0; t2 < t_len_; ++t2) out[t2] /= denom;
      }
    }
  }, 1);

  // ---- V columns: reshape+transpose to [N*Dk, T] (the paper's V~r) ------
  nn::Tensor v_cols({n * dk_, t_len_});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < dk_; ++d) {
      float* dst = v_cols.row(s * dk_ + d);
      for (std::size_t t = 0; t < t_len_; ++t) dst[t] = v.at(s, t, d);
    }
  }

  // ---- Stage 2: score/V prototypes and the QKV table (Eq. 14) -----------
  qkv_table_.assign(config.ct * kp * kp, 0.0f);
  s_encoders_.resize(config.ct);
  v_encoders_.resize(config.ct);
  common::parallel_for_each(config.ct, [&](std::size_t c) {
    pq::KMeansOptions km;
    km.max_iters = config_.kmeans_iters;
    km.seed = common::derive_seed(config_.seed, 300 + c);
    auto rs = pq::kmeans(slice_subspace(score_rows, c, sub_t_), kp, km);
    km.seed = common::derive_seed(config_.seed, 400 + c);
    auto rv = pq::kmeans(slice_subspace(v_cols, c, sub_t_), kp, km);
    // Fold scaling + activation into the score prototypes (Eq. 14); in the
    // softmax mode the scores were already activated above, so the
    // prototypes are used as-is.
    nn::Tensor activated = rs.centroids;
    if (config_.activation == AttentionActivation::kSigmoidFolded) {
      for (std::size_t i = 0; i < activated.numel(); ++i) {
        activated[i] = nn::ops::sigmoid(activated[i] * scale);
      }
    }
    pairwise_dot(activated, rv.centroids, qkv_table_.data() + c * kp * kp);
    s_encoders_[c] = pq::make_encoder(config_.encoder, rs.centroids);
    v_encoders_[c] = pq::make_encoder(config_.encoder, rv.centroids);
  }, 1);
}

AttentionKernel AttentionKernel::from_parts(
    const AttentionKernelConfig& config, std::size_t t_len, std::size_t dk,
    std::vector<float> qk_table, std::vector<float> qkv_table,
    std::vector<std::unique_ptr<pq::Encoder>> q_encoders,
    std::vector<std::unique_ptr<pq::Encoder>> k_encoders,
    std::vector<std::unique_ptr<pq::Encoder>> s_encoders,
    std::vector<std::unique_ptr<pq::Encoder>> v_encoders) {
  const std::size_t kp = config.num_prototypes;
  if (t_len == 0 || dk == 0 || kp == 0 || config.ck == 0 || config.ct == 0 ||
      dk % config.ck != 0 || t_len % config.ct != 0) {
    throw std::invalid_argument("AttentionKernel::from_parts: inconsistent dimensions");
  }
  if (qk_table.size() != config.ck * kp * kp || qkv_table.size() != config.ct * kp * kp) {
    throw std::invalid_argument("AttentionKernel::from_parts: table size mismatch");
  }
  const std::size_t sub_dk = dk / config.ck;
  const std::size_t sub_t = t_len / config.ct;
  auto check_bank = [kp](const std::vector<std::unique_ptr<pq::Encoder>>& bank,
                         std::size_t count, std::size_t width) {
    if (bank.size() != count) {
      throw std::invalid_argument("AttentionKernel::from_parts: encoder count mismatch");
    }
    for (const auto& enc : bank) {
      if (!enc || enc->vec_dim() != width || enc->num_prototypes() != kp) {
        throw std::invalid_argument("AttentionKernel::from_parts: encoder shape mismatch");
      }
    }
  };
  check_bank(q_encoders, config.ck, sub_dk);
  check_bank(k_encoders, config.ck, sub_dk);
  check_bank(s_encoders, config.ct, sub_t);
  check_bank(v_encoders, config.ct, sub_t);

  AttentionKernel kernel;
  kernel.config_ = config;
  kernel.t_len_ = t_len;
  kernel.dk_ = dk;
  kernel.sub_dk_ = sub_dk;
  kernel.sub_t_ = sub_t;
  kernel.qk_table_ = std::move(qk_table);
  kernel.qkv_table_ = std::move(qkv_table);
  kernel.q_encoders_ = std::move(q_encoders);
  kernel.k_encoders_ = std::move(k_encoders);
  kernel.s_encoders_ = std::move(s_encoders);
  kernel.v_encoders_ = std::move(v_encoders);
  return kernel;
}

void AttentionKernel::query_batch_into(const float* q, std::size_t q_stride, const float* k,
                                       std::size_t k_stride, const float* v,
                                       std::size_t v_stride, std::size_t n, float* out,
                                       std::size_t out_stride, InferenceWorkspace& ws) const {
  const std::size_t kp = config_.num_prototypes;
  const std::size_t ck = config_.ck, ct = config_.ct;
  const std::size_t rows = n * t_len_;   // Q/K/score rows across the block
  const std::size_t vrows = n * dk_;     // V columns across the block
  const auto m = ws.mark();

  // ---- Stage 1: encode all samples' Q/K rows, one call per subspace -----
  std::uint32_t* qc = ws.codes(ck * rows);
  std::uint32_t* kc = ws.codes(ck * rows);
  for (std::size_t c = 0; c < ck; ++c) {
    q_encoders_[c]->encode_batch(q + c * sub_dk_, q_stride, rows, qc + c * rows);
    k_encoders_[c]->encode_batch(k + c * sub_dk_, k_stride, rows, kc + c * rows);
  }

  // ---- Score matrices via QK lookups (Eq. 13), per sample ---------------
  float* scores = ws.floats(rows * t_len_);
  for (std::size_t s = 0; s < n; ++s) {
    float* sbase = scores + s * t_len_ * t_len_;
#if DART_ATTN_SIMD
    for (std::size_t t1 = 0; t1 < t_len_; ++t1) {
      gather_row(qk_table_.data(), kp, qc + s * t_len_ + t1, rows, kc + s * t_len_, rows, ck,
                 t_len_, sbase + t1 * t_len_);
    }
#else
    for (std::size_t c = 0; c < ck; ++c) {
      const float* tab = qk_table_.data() + c * kp * kp;
      const std::uint32_t* qcc = qc + c * rows + s * t_len_;
      const std::uint32_t* kcc = kc + c * rows + s * t_len_;
      for (std::size_t t1 = 0; t1 < t_len_; ++t1) {
        const float* trow = tab + qcc[t1] * kp;
        float* srow = sbase + t1 * t_len_;
        if (c == 0) {
          for (std::size_t t2 = 0; t2 < t_len_; ++t2) srow[t2] = trow[kcc[t2]];
        } else {
          for (std::size_t t2 = 0; t2 < t_len_; ++t2) srow[t2] += trow[kcc[t2]];
        }
      }
    }
#endif
  }
  if (config_.activation == AttentionActivation::kSoftmaxAtQuery) {
    const float scale = 1.0f / std::sqrt(static_cast<float>(dk_));
    for (std::size_t t1 = 0; t1 < rows; ++t1) {
      float* srow = scores + t1 * t_len_;
      float mx = srow[0] * scale;
      for (std::size_t t2 = 0; t2 < t_len_; ++t2) {
        srow[t2] *= scale;
        mx = std::max(mx, srow[t2]);
      }
      float denom = 0.0f;
      for (std::size_t t2 = 0; t2 < t_len_; ++t2) {
        srow[t2] = std::exp(srow[t2] - mx);
        denom += srow[t2];
      }
      const float inv = 1.0f / denom;
      for (std::size_t t2 = 0; t2 < t_len_; ++t2) srow[t2] *= inv;
    }
  }

  // ---- Stage 2: encode all score rows and V columns ----------------------
  std::uint32_t* sc = ws.codes(ct * rows);
  std::uint32_t* vc = ws.codes(ct * vrows);
  for (std::size_t c = 0; c < ct; ++c) {
    s_encoders_[c]->encode_batch(scores + c * sub_t_, t_len_, rows, sc + c * rows);
  }
  // V's columns are encoder rows read in place: column d of sample s
  // starts at v + s*T*v_stride + d, its T floats v_stride apart. Rows are
  // 1 float apart within a sample only, so each sample is one call per
  // subspace.
  for (std::size_t s = 0; s < n; ++s) {
    const float* vs = v + s * t_len_ * v_stride;
    for (std::size_t c = 0; c < ct; ++c) {
      v_encoders_[c]->encode_batch(vs + c * sub_t_ * v_stride, 1, dk_, vc + c * vrows + s * dk_,
                                   1, v_stride);
    }
  }

  // ---- Final lookups + aggregation (Eq. 15), per sample ------------------
  for (std::size_t s = 0; s < n; ++s) {
    float* obase = out + s * t_len_ * out_stride;
#if DART_ATTN_SIMD
    for (std::size_t t = 0; t < t_len_; ++t) {
      gather_row(qkv_table_.data(), kp, sc + s * t_len_ + t, rows, vc + s * dk_, vrows, ct, dk_,
                 obase + t * out_stride);
    }
#else
    for (std::size_t c = 0; c < ct; ++c) {
      const float* tab = qkv_table_.data() + c * kp * kp;
      const std::uint32_t* scc = sc + c * rows + s * t_len_;
      const std::uint32_t* vcc = vc + c * vrows + s * dk_;
      for (std::size_t t = 0; t < t_len_; ++t) {
        const float* trow = tab + scc[t] * kp;
        float* orow = obase + t * out_stride;
        if (c == 0) {
          for (std::size_t d = 0; d < dk_; ++d) orow[d] = trow[vcc[d]];
        } else {
          for (std::size_t d = 0; d < dk_; ++d) orow[d] += trow[vcc[d]];
        }
      }
    }
#endif
  }
  ws.rewind(m);
}

nn::Tensor AttentionKernel::approx_scores(const nn::Tensor& q, const nn::Tensor& k) const {
  const std::size_t kp = config_.num_prototypes;
  nn::Tensor scores({t_len_, t_len_});
  std::vector<std::uint32_t> qc(config_.ck * t_len_), kc(config_.ck * t_len_);
  for (std::size_t c = 0; c < config_.ck; ++c) {
    q_encoders_[c]->encode_batch(q.data() + c * sub_dk_, dk_, t_len_, qc.data() + c * t_len_);
    k_encoders_[c]->encode_batch(k.data() + c * sub_dk_, dk_, t_len_, kc.data() + c * t_len_);
  }
  for (std::size_t t1 = 0; t1 < t_len_; ++t1) {
    for (std::size_t t2 = 0; t2 < t_len_; ++t2) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < config_.ck; ++c) {
        acc += qk_table_[c * kp * kp + qc[c * t_len_ + t1] * kp + kc[c * t_len_ + t2]];
      }
      scores.at(t1, t2) = acc;
    }
  }
  return scores;
}

nn::Tensor AttentionKernel::query(const nn::Tensor& q, const nn::Tensor& k,
                                  const nn::Tensor& v) const {
  if (q.ndim() != 2 || q.dim(0) != t_len_ || q.dim(1) != dk_) {
    throw std::invalid_argument("AttentionKernel::query: q must be [T, Dk]");
  }
  nn::Tensor out({t_len_, dk_});
  query_into(q.data(), dk_, k.data(), dk_, v.data(), dk_, out.data(), dk_,
             thread_local_workspace());
  return out;
}

std::size_t AttentionKernel::table_bytes() const {
  return (qk_table_.size() + qkv_table_.size()) * sizeof(float);
}

}  // namespace dart::tabular
