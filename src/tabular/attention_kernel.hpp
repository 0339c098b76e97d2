// Attention tabularization kernel (the paper's §V-B, Eq. 12-15).
//
// Tabularizes one attention head over [T, Dk] inputs without any fixed
// weight matrix, via two quantization stages:
//
//   1. QK stage — prototypes for Q rows and K rows per Dk-subspace; the QK
//      table stores pairwise prototype dot products (Eq. 12), so the T×T
//      score matrix is recovered by lookups (Eq. 13). Depth K², width Ck.
//   2. QKV stage — the approximated score rows (length T) are quantized a
//      second time; scaling by 1/sqrt(Dk) and the activation are applied to
//      the score prototypes at *training* time (Eq. 14), then dotted against
//      prototypes of V columns (V^T rows), giving the QKV table of depth K²,
//      width Ct. A query is two rounds of encode->lookup->aggregate (Eq. 15).
//
// Double quantization keeps total depth at 2K² instead of the naive K³.
//
// Activation note: the paper's text says Softmax but its Eq. 14 applies a
// Sigmoid to the scaled score prototypes — softmax cannot be folded
// per-subspace because it normalizes over the full row. We implement Eq. 14
// (sigmoid folding) as the default and also provide a softmax-at-query mode
// for ablation (row softmax on the looked-up scores costs O(T) scalar ops,
// no matmul).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"
#include "pq/encoder.hpp"
#include "tabular/linear_kernel.hpp"
#include "tabular/workspace.hpp"

namespace dart::tabular {

enum class AttentionActivation {
  kSigmoidFolded,   ///< Eq. 14: sigmoid folded into the QKV table (default)
  kSoftmaxAtQuery,  ///< ablation: exact row softmax applied to looked-up scores
};

struct AttentionKernelConfig {
  std::size_t num_prototypes = 128;  ///< K (shared by both stages, as in the paper)
  std::size_t ck = 2;                ///< subspaces over the Dk dimension
  std::size_t ct = 2;                ///< subspaces over the T dimension
  AttentionActivation activation = AttentionActivation::kSigmoidFolded;
  pq::EncoderKind encoder = pq::EncoderKind::kExact;
  std::size_t kmeans_iters = 10;
  std::uint64_t seed = 11;
};

class AttentionKernel {
 public:
  /// Trains both stages from per-head activations `q`,`k`,`v` of shape
  /// [N, T, Dk] collected on the training set.
  AttentionKernel(const nn::Tensor& q, const nn::Tensor& k, const nn::Tensor& v,
                  const AttentionKernelConfig& config);

  /// Deserialization factory: adopts previously trained QK/QKV tables (the
  /// `qk_table()` / `qkv_table()` layouts) and the four encoder banks
  /// verbatim — no k-means, no activations. Validates every size and
  /// encoder shape against `config`/`t_len`/`dk` and throws
  /// std::invalid_argument on mismatch. Used by `src/io/artifact.cpp`.
  static AttentionKernel from_parts(const AttentionKernelConfig& config, std::size_t t_len,
                                    std::size_t dk, std::vector<float> qk_table,
                                    std::vector<float> qkv_table,
                                    std::vector<std::unique_ptr<pq::Encoder>> q_encoders,
                                    std::vector<std::unique_ptr<pq::Encoder>> k_encoders,
                                    std::vector<std::unique_ptr<pq::Encoder>> s_encoders,
                                    std::vector<std::unique_ptr<pq::Encoder>> v_encoders);

  /// Zero-allocation hot path: queries one sample whose q/k/v rows live at
  /// `q + t*q_stride` etc. (so per-head slices of a packed [T, 3D] QKV
  /// activation can be queried without split copies) and writes row t of
  /// the [T, Dk] output at `out + t*out_stride`. Strictly serial; scratch
  /// comes from `ws`.
  void query_into(const float* q, std::size_t q_stride, const float* k, std::size_t k_stride,
                  const float* v, std::size_t v_stride, float* out, std::size_t out_stride,
                  InferenceWorkspace& ws) const {
    query_batch_into(q, q_stride, k, k_stride, v, v_stride, 1, out, out_stride, ws);
  }

  /// Block variant: `n` consecutive samples whose q/k/v rows are uniformly
  /// strided across the whole block (true for a packed [n*T, 3D] QKV
  /// activation). All four encoder banks run ONE encode_batch per subspace
  /// over the n*T (or n*Dk) rows; only the table-lookup aggregation loops
  /// iterate per sample. Sample s's [T, Dk] output starts at
  /// `out + s*T*out_stride`.
  void query_batch_into(const float* q, std::size_t q_stride, const float* k,
                        std::size_t k_stride, const float* v, std::size_t v_stride,
                        std::size_t n, float* out, std::size_t out_stride,
                        InferenceWorkspace& ws) const;

  /// Queries one sample: q/k/v are [T, Dk]; returns [T, Dk].
  nn::Tensor query(const nn::Tensor& q, const nn::Tensor& k, const nn::Tensor& v) const;

  /// Reconstructs the approximate (unscaled) score matrix QK^T [T, T] via
  /// the first-stage lookups only (Eq. 13) — exposed for tests/ablation.
  nn::Tensor approx_scores(const nn::Tensor& q, const nn::Tensor& k) const;

  std::size_t seq_len() const { return t_len_; }
  std::size_t head_dim() const { return dk_; }

  /// Workspace demand of one single-sample `query_into` (floats, codes);
  /// the block variant scales both by the sample count.
  std::size_t float_slots() const { return t_len_ * t_len_; }
  std::size_t code_slots() const {
    return 2 * config_.ck * t_len_ + config_.ct * (t_len_ + dk_);
  }

  /// Total table storage in bytes: K^2 * (Ck + Ct) entries (Eq. 19's S_h).
  std::size_t table_bytes() const;

  const AttentionKernelConfig& config() const { return config_; }

  // Raw tables and encoder banks (golden-reference tests). Layouts:
  // qk_table()[c*K*K + i*K + j] = P^c_q,i · P^c_k,j,
  // qkv_table()[c*K*K + i*K + j] = act(P^c_s,i / sqrt(Dk)) · P^c_v,j.
  const std::vector<float>& qk_table() const { return qk_table_; }
  const std::vector<float>& qkv_table() const { return qkv_table_; }
  const pq::Encoder& q_encoder(std::size_t c) const { return *q_encoders_[c]; }
  const pq::Encoder& k_encoder(std::size_t c) const { return *k_encoders_[c]; }
  const pq::Encoder& s_encoder(std::size_t c) const { return *s_encoders_[c]; }
  const pq::Encoder& v_encoder(std::size_t c) const { return *v_encoders_[c]; }

 private:
  AttentionKernel() = default;  // from_parts fills every member

  AttentionKernelConfig config_;
  std::size_t t_len_ = 0;
  std::size_t dk_ = 0;
  std::size_t sub_dk_ = 0;  ///< Dk / Ck
  std::size_t sub_t_ = 0;   ///< T / Ct

  // Stage 1: QK table, layout [c][i][j] = P^c_q,i · P^c_k,j.
  std::vector<float> qk_table_;  ///< Ck * K * K
  std::vector<std::unique_ptr<pq::Encoder>> q_encoders_;  ///< per Dk-subspace
  std::vector<std::unique_ptr<pq::Encoder>> k_encoders_;

  // Stage 2: QKV table, layout [c][i][j] = act(P^c_s,i / sqrt(Dk)) · P^c_v,j.
  std::vector<float> qkv_table_;  ///< Ct * K * K
  std::vector<std::unique_ptr<pq::Encoder>> s_encoders_;  ///< score-row subspaces
  std::vector<std::unique_ptr<pq::Encoder>> v_encoders_;  ///< V-column subspaces
};

}  // namespace dart::tabular
