// Linear tabularization kernel (the paper's §V-A, Eq. 10-11).
//
// Converts y = W x + b into table lookups: prototypes are learned (k-means)
// on the layer's *actual input distribution* (rows of the training
// activations), then for every output channel o and subspace c the dot
// products W_o,c · P_ck are precomputed. The bias is folded into subspace 0
// so query-time aggregation adds it for free.
//
// Table layout is [C][K][DO] (DESIGN.md §6): the DO outputs of one
// (subspace, prototype) pair are contiguous, so aggregation is C row-copies/
// row-adds of length DO — auto-vectorizable streaming adds instead of the
// DO×C strided gathers a [DO][C][K] layout forces.
//
// A fused layer stack (the paper's §VIII future work: "converting multiple
// layers into a single table") is the same kernel with one codebook. A
// nonlinear stack such as FFN = Linear∘ReLU∘Linear does not decompose
// additively across subspaces, so `fused` learns K full-width prototypes on
// the stack's input rows and stores the stack's output at each of them:
//
//   table[k] = f(P_k),  query(x) = table[g(x)]
//
// With C = 1 the aggregation is one DO-wide row copy, so a query costs
// log K + 1 cycles instead of two chained kernels' 2·(log K + log C + 1).
// The price is plain vector-quantization error, which
// bench_ablation_fused_ffn measures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"
#include "pq/encoder.hpp"
#include "tabular/workspace.hpp"

namespace dart::tabular {

/// What `LinearKernel::query_into` does to each aggregated row in
/// registers before its one store (DESIGN.md §6): nothing, add a residual
/// row, or ReLU. Each is the elementwise step a caller would otherwise run
/// as its own pass over the stored rows, with the same arithmetic.
struct Epilogue {
  enum class Kind { kNone, kAdd, kRelu };
  Kind kind = Kind::kNone;
  const float* rows = nullptr;  ///< kAdd: the residual rows
  std::size_t stride = 0;       ///< kAdd: floats between residual rows
  std::size_t period = 0;       ///< kAdd: row i adds row i mod period (0: row i)

  /// out_i = agg_i + rows[(i mod period) * stride ...], agg first; the
  /// residual must not overlap the output. A period of T adds a [T, DO]
  /// positional encoding to every sample of a block.
  static Epilogue add(const float* rows, std::size_t stride, std::size_t period = 0) {
    return {Kind::kAdd, rows, stride, period};
  }
  /// out = agg > 0 ? agg : 0, so NaN and -0 give +0.
  static Epilogue relu() { return {Kind::kRelu, nullptr, 0, 0}; }
};

/// Training-time configuration of one linear kernel: the <K, C> table
/// geometry plus the prototype-learning knobs.
struct KernelConfig {
  std::size_t num_prototypes = 128;  ///< K: prototypes per subspace
  std::size_t num_subspaces = 2;     ///< C: input subspaces (codebooks)
  pq::EncoderKind encoder = pq::EncoderKind::kExact;  ///< query-time encoder
  std::size_t kmeans_iters = 10;  ///< k-means refinement iterations
  std::uint64_t seed = 7;         ///< prototype-learning RNG seed
};

/// A tabularized linear layer (the paper's §V-A): y = Wx + b replaced by
/// per-subspace prototype encoding plus C row-adds from the precomputed
/// [C][K][DO] output table.
class LinearKernel {
 public:
  /// `weight` [DO, DI], `bias` [DO], `training_rows` [M, DI] — the observed
  /// inputs of this layer (batch and sequence flattened), per Fig. 4a.
  LinearKernel(const nn::Tensor& weight, const nn::Tensor& bias,
               const nn::Tensor& training_rows, const KernelConfig& config);

  /// Deserialization factory: adopts a previously trained table (in the
  /// [C][K][DO] layout of `table()`) and per-subspace encoders verbatim —
  /// no k-means, no weights. Validates dimensional consistency (table size,
  /// encoder count/width/prototype count) and throws std::invalid_argument
  /// on mismatch, so a corrupted artifact cannot yield out-of-bounds
  /// lookups. Used by `src/io/artifact.cpp`.
  static LinearKernel from_parts(const KernelConfig& config, std::size_t in_dim,
                                 std::size_t out_dim, std::vector<float> table,
                                 std::vector<std::unique_ptr<pq::Encoder>> encoders);

  /// Collapses a whole layer stack into one table (see the file comment).
  /// `stack` maps a [M, DI] batch to [M, DO]; its K prototypes are learned
  /// on `training_rows` [M, DI] with `config.seed` itself (a one-codebook
  /// table has no per-subspace seed). Throws std::invalid_argument unless
  /// `config.num_subspaces == 1` and the rows and stack output have those
  /// shapes.
  static LinearKernel fused(std::size_t in_dim, std::size_t out_dim,
                            const std::function<nn::Tensor(const nn::Tensor&)>& stack,
                            const nn::Tensor& training_rows, const KernelConfig& config);

  /// Zero-allocation hot path: applies the kernel to `n` rows starting at
  /// `rows` (consecutive rows `row_stride` floats apart), applies
  /// `epilogue` to each aggregated row and writes row i's DO outputs at
  /// `out + i * out_stride`. Strictly serial — callers own all parallelism
  /// (DESIGN.md §6) — and allocates only from `ws`.
  void query_into(const float* rows, std::size_t n, std::size_t row_stride, float* out,
                  std::size_t out_stride, InferenceWorkspace& ws,
                  const Epilogue& epilogue = {}) const;

  /// The mean over each sample's rows, for an output head: `samples` blocks
  /// of `t_len` consecutive rows; writes sample s's DO outputs at
  /// `out + s * out_stride`, the sum in t order of each aggregated row
  /// times 1/t_len from 0. With AVX-512 and FMA each step is one fused
  /// multiply-add; the portable path keeps `acc += row * inv_t` (DESIGN.md
  /// §6). No per-row buffer; serial; allocates only from `ws`.
  void query_mean_into(const float* rows, std::size_t samples, std::size_t t_len,
                       std::size_t row_stride, float* out, std::size_t out_stride,
                       InferenceWorkspace& ws) const;

  /// Applies the kernel to [T, DI] (or [M, DI]) rows -> [T, DO].
  /// Pure lookups + aggregation; no multiplications with weights.
  /// Convenience wrapper over `query_into` that parallelizes across rows.
  nn::Tensor query(const nn::Tensor& rows) const;

  /// Applies to a 3-D activation [B, T, DI] -> [B, T, DO].
  nn::Tensor query3d(const nn::Tensor& x) const;

  /// Input width DI.
  std::size_t in_dim() const { return in_dim_; }
  /// Output width DO.
  std::size_t out_dim() const { return out_dim_; }
  /// K: prototypes per subspace.
  std::size_t num_prototypes() const { return config_.num_prototypes; }
  /// C: input subspaces.
  std::size_t num_subspaces() const { return config_.num_subspaces; }

  /// Workspace code slots one `query_into` over `n` rows needs.
  std::size_t code_slots(std::size_t n) const { return config_.num_subspaces * n; }

  /// Table storage in bytes (DO*K*C entries, 4 bytes each) — the S_h term
  /// of Eq. 18.
  std::size_t table_bytes() const;

  /// The training-time configuration this kernel was built with.
  const KernelConfig& config() const { return config_; }

  /// Raw table in [C][K][DO] layout: entry ((c*K)+k)*DO+o = W_o,c · P_ck
  /// (+ b_o when c == 0); a fused kernel's entry k*DO+o is f(P_k)_o.
  /// Exposed for serialization and the golden-reference tests.
  const std::vector<float>& table() const { return table_; }
  /// Per-subspace encoder (for the golden-reference tests).
  const pq::Encoder& encoder(std::size_t c) const { return *encoders_[c]; }

 private:
  LinearKernel() = default;  // from_parts fills every member

  /// Encodes `n` rows into `ws` codes, subspace-major: codes[c * n + i].
  std::uint32_t* encode_rows(const float* rows, std::size_t n, std::size_t row_stride,
                             InferenceWorkspace& ws) const;

  KernelConfig config_;
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  std::size_t sub_dim_ = 0;
  // table_[((c * K) + k) * DO + o] = W_o,c · P_ck (+ b_o when c == 0).
  std::vector<float> table_;
  std::vector<std::unique_ptr<pq::Encoder>> encoders_;  ///< one per subspace
};

}  // namespace dart::tabular
