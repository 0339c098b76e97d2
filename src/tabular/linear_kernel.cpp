#include "tabular/linear_kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "pq/kmeans.hpp"

#if defined(__AVX512F__) && defined(__FMA__)
#include <immintrin.h>
#define DART_AGG_SIMD 1
#else
#define DART_AGG_SIMD 0
#endif

namespace dart::tabular {

namespace {

/// A kernel's [C][K][DO] table as the aggregation loops read it.
struct TableView {
  const float* tbl;
  std::size_t k, c_count, dout;

  /// Subspace c's table row for row i of a call over n rows, whose codes
  /// are subspace-major (codes[c * n + i]).
  const float* row(const std::uint32_t* codes, std::size_t n, std::size_t c,
                   std::size_t i) const {
    return tbl + (c * k + codes[c * n + i]) * dout;
  }
};

#if DART_AGG_SIMD
inline __mmask16 tail_mask(std::size_t left) {
  return left >= 16 ? __mmask16(0xFFFF) : static_cast<__mmask16>((1u << left) - 1u);
}

/// Columns o.. under `mask` of row i's aggregate: subspace 0's table row
/// `t0` (the bias is folded there) plus the later subspaces' rows in c
/// order.
inline __m512 aggregate16(const TableView& t, const std::uint32_t* codes, std::size_t n,
                          std::size_t i, const float* t0, std::size_t o, __mmask16 mask) {
  __m512 acc = _mm512_maskz_loadu_ps(mask, t0 + o);
  for (std::size_t c = 1; c < t.c_count; ++c) {
    acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(mask, t.row(codes, n, c, i) + o));
  }
  return acc;
}

/// The aggregation with epilogue E, each row's chunks stored once.
template <Epilogue::Kind E>
void aggregate_rows(const TableView& t, const std::uint32_t* codes, std::size_t n, float* out,
                    std::size_t out_stride, const Epilogue& ep) {
  std::size_t r = 0;  // residual row: i mod period
  for (std::size_t i = 0; i < n; ++i) {
    float* orow = out + i * out_stride;
    const float* t0 = t.row(codes, n, 0, i);
    const float* res = nullptr;
    if constexpr (E == Epilogue::Kind::kAdd) res = ep.rows + r * ep.stride;
    for (std::size_t o = 0; o < t.dout; o += 16) {
      const __mmask16 mask = tail_mask(t.dout - o);
      __m512 acc = aggregate16(t, codes, n, i, t0, o, mask);
      if constexpr (E == Epilogue::Kind::kAdd) {
        acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(mask, res + o));
      } else if constexpr (E == Epilogue::Kind::kRelu) {
        // v > 0 ? v : 0, the compare false for NaN.
        acc = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(acc, _mm512_setzero_ps(), _CMP_GT_OQ), acc);
      }
      _mm512_mask_storeu_ps(orow + o, mask, acc);
    }
    if (E == Epilogue::Kind::kAdd && ++r == ep.period) r = 0;
  }
}
#endif

}  // namespace

LinearKernel::LinearKernel(const nn::Tensor& weight, const nn::Tensor& bias,
                           const nn::Tensor& training_rows, const KernelConfig& config)
    : config_(config), in_dim_(weight.dim(1)), out_dim_(weight.dim(0)) {
  if (training_rows.ndim() != 2 || training_rows.dim(1) != in_dim_) {
    throw std::invalid_argument("LinearKernel: training rows must be [M, DI]");
  }
  if (in_dim_ % config.num_subspaces != 0) {
    throw std::invalid_argument("LinearKernel: DI must be divisible by C");
  }
  sub_dim_ = in_dim_ / config.num_subspaces;
  const std::size_t k = config.num_prototypes;
  const std::size_t c_count = config.num_subspaces;
  const std::size_t m = training_rows.dim(0);

  table_.assign(c_count * k * out_dim_, 0.0f);
  encoders_.resize(c_count);

  // Per-subspace prototype learning + table construction (Eq. 10).
  // Subspaces are independent — parallelize across them. Each subspace owns
  // the disjoint table block [c*K*DO, (c+1)*K*DO).
  common::parallel_for_each(c_count, [&](std::size_t c) {
    nn::Tensor sub({m, sub_dim_});
    for (std::size_t i = 0; i < m; ++i) {
      const float* src = training_rows.row(i) + c * sub_dim_;
      std::copy(src, src + sub_dim_, sub.row(i));
    }
    pq::KMeansOptions km;
    km.max_iters = config_.kmeans_iters;
    km.seed = common::derive_seed(config_.seed, c);
    pq::KMeansResult res = pq::kmeans(sub, k, km);
    // h^c_o(W)_k = W_o,c · P_ck  (+ bias folded into subspace 0).
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* proto = res.centroids.row(kk);
      float* trow = table_.data() + (c * k + kk) * out_dim_;
      for (std::size_t o = 0; o < out_dim_; ++o) {
        const float* wrow = weight.row(o) + c * sub_dim_;
        float acc = 0.0f;
        for (std::size_t j = 0; j < sub_dim_; ++j) acc += wrow[j] * proto[j];
        if (c == 0) acc += bias[o];
        trow[o] = acc;
      }
    }
    encoders_[c] = pq::make_encoder(config_.encoder, res.centroids);
  }, 1);
}

LinearKernel LinearKernel::from_parts(const KernelConfig& config, std::size_t in_dim,
                                      std::size_t out_dim, std::vector<float> table,
                                      std::vector<std::unique_ptr<pq::Encoder>> encoders) {
  const std::size_t k = config.num_prototypes;
  const std::size_t c_count = config.num_subspaces;
  if (in_dim == 0 || out_dim == 0 || k == 0 || c_count == 0 || in_dim % c_count != 0) {
    throw std::invalid_argument("LinearKernel::from_parts: inconsistent dimensions");
  }
  if (table.size() != c_count * k * out_dim) {
    throw std::invalid_argument("LinearKernel::from_parts: table size mismatch");
  }
  if (encoders.size() != c_count) {
    throw std::invalid_argument("LinearKernel::from_parts: encoder count mismatch");
  }
  const std::size_t sub_dim = in_dim / c_count;
  for (const auto& enc : encoders) {
    if (!enc || enc->vec_dim() != sub_dim || enc->num_prototypes() != k) {
      throw std::invalid_argument("LinearKernel::from_parts: encoder shape mismatch");
    }
  }
  LinearKernel kernel;
  kernel.config_ = config;
  kernel.in_dim_ = in_dim;
  kernel.out_dim_ = out_dim;
  kernel.sub_dim_ = sub_dim;
  kernel.table_ = std::move(table);
  kernel.encoders_ = std::move(encoders);
  return kernel;
}

LinearKernel LinearKernel::fused(std::size_t in_dim, std::size_t out_dim,
                                 const std::function<nn::Tensor(const nn::Tensor&)>& stack,
                                 const nn::Tensor& training_rows, const KernelConfig& config) {
  if (config.num_subspaces != 1) {
    throw std::invalid_argument("LinearKernel::fused: a fused table has one codebook (C = 1)");
  }
  if (training_rows.ndim() != 2 || training_rows.dim(1) != in_dim) {
    throw std::invalid_argument("LinearKernel::fused: training rows must be [M, DI]");
  }
  pq::KMeansOptions km;
  km.max_iters = config.kmeans_iters;
  km.seed = config.seed;
  pq::KMeansResult res = pq::kmeans(training_rows, config.num_prototypes, km);
  // Evaluate the full layer stack at every prototype: this row IS the table.
  const nn::Tensor table = stack(res.centroids);
  if (table.ndim() != 2 || table.dim(0) != config.num_prototypes || table.dim(1) != out_dim) {
    throw std::invalid_argument("LinearKernel::fused: stack output shape mismatch");
  }
  std::vector<std::unique_ptr<pq::Encoder>> encoders;
  encoders.push_back(pq::make_encoder(config.encoder, res.centroids));
  return from_parts(config, in_dim, out_dim,
                    std::vector<float>(table.data(), table.data() + table.numel()),
                    std::move(encoders));
}

std::uint32_t* LinearKernel::encode_rows(const float* rows, std::size_t n,
                                        std::size_t row_stride, InferenceWorkspace& ws) const {
  std::uint32_t* codes = ws.codes(config_.num_subspaces * n);
  for (std::size_t c = 0; c < config_.num_subspaces; ++c) {
    encoders_[c]->encode_batch(rows + c * sub_dim_, row_stride, n, codes + c * n);
  }
  return codes;
}

void LinearKernel::query_into(const float* rows, std::size_t n, std::size_t row_stride,
                              float* out, std::size_t out_stride, InferenceWorkspace& ws,
                              const Epilogue& epilogue) const {
  const auto m = ws.mark();
  const std::uint32_t* codes = encode_rows(rows, n, row_stride, ws);
  const TableView t{table_.data(), config_.num_prototypes, config_.num_subspaces, out_dim_};
#if DART_AGG_SIMD
  // The sums in registers: per chunk of 16 columns, subspace 0's row plus
  // the later subspaces in c order, then the epilogue, stored once.
  switch (epilogue.kind) {
    case Epilogue::Kind::kNone:
      aggregate_rows<Epilogue::Kind::kNone>(t, codes, n, out, out_stride, epilogue);
      break;
    case Epilogue::Kind::kAdd:
      aggregate_rows<Epilogue::Kind::kAdd>(t, codes, n, out, out_stride, epilogue);
      break;
    case Epilogue::Kind::kRelu:
      aggregate_rows<Epilogue::Kind::kRelu>(t, codes, n, out, out_stride, epilogue);
      break;
  }
#else
  std::size_t r = 0;  // residual row: i mod period
  for (std::size_t i = 0; i < n; ++i) {
    float* orow = out + i * out_stride;
    // Subspace 0 initializes (bias is folded there), the rest accumulate:
    // C contiguous row-adds of length DO.
    const float* t0 = t.row(codes, n, 0, i);
    std::copy(t0, t0 + out_dim_, orow);
    for (std::size_t c = 1; c < t.c_count; ++c) {
      const float* tc = t.row(codes, n, c, i);
      for (std::size_t o = 0; o < out_dim_; ++o) orow[o] += tc[o];
    }
    if (epilogue.kind == Epilogue::Kind::kAdd) {
      const float* res = epilogue.rows + r * epilogue.stride;
      for (std::size_t o = 0; o < out_dim_; ++o) orow[o] += res[o];
      if (++r == epilogue.period) r = 0;
    } else if (epilogue.kind == Epilogue::Kind::kRelu) {
      for (std::size_t o = 0; o < out_dim_; ++o) orow[o] = orow[o] > 0.0f ? orow[o] : 0.0f;
    }
  }
#endif
  ws.rewind(m);
}

void LinearKernel::query_mean_into(const float* rows, std::size_t samples, std::size_t t_len,
                                   std::size_t row_stride, float* out, std::size_t out_stride,
                                   InferenceWorkspace& ws) const {
  const std::size_t n = samples * t_len;
  const auto m = ws.mark();
  const std::uint32_t* codes = encode_rows(rows, n, row_stride, ws);
  const TableView t{table_.data(), config_.num_prototypes, config_.num_subspaces, out_dim_};
  const float inv_t = 1.0f / static_cast<float>(t_len);
#if DART_AGG_SIMD
  // Per chunk of 16 outputs, the sample's rows aggregate in registers and
  // fold into the sum one FMA each, in t order from +0.
  const __m512 inv = _mm512_set1_ps(inv_t);
  for (std::size_t s = 0; s < samples; ++s) {
    float* orow = out + s * out_stride;
    for (std::size_t o = 0; o < out_dim_; o += 16) {
      const __mmask16 mask = tail_mask(out_dim_ - o);
      __m512 acc = _mm512_setzero_ps();
      for (std::size_t i = s * t_len; i < (s + 1) * t_len; ++i) {
        acc = _mm512_fmadd_ps(aggregate16(t, codes, n, i, t.row(codes, n, 0, i), o, mask), inv,
                              acc);
      }
      _mm512_mask_storeu_ps(orow + o, mask, acc);
    }
  }
#else
  for (std::size_t s = 0; s < samples; ++s) {
    float* orow = out + s * out_stride;
    std::fill(orow, orow + out_dim_, 0.0f);
    for (std::size_t tt = 0; tt < t_len; ++tt) {
      const std::size_t i = s * t_len + tt;
      const float* t0 = t.row(codes, n, 0, i);
      for (std::size_t o = 0; o < out_dim_; ++o) {
        float v = t0[o];
        for (std::size_t c = 1; c < t.c_count; ++c) v += t.row(codes, n, c, i)[o];
        orow[o] += v * inv_t;
      }
    }
  }
#endif
  ws.rewind(m);
}

nn::Tensor LinearKernel::query(const nn::Tensor& rows) const {
  if (rows.ndim() != 2 || rows.dim(1) != in_dim_) {
    throw std::invalid_argument("LinearKernel::query: rows must be [T, DI]");
  }
  const std::size_t t_len = rows.dim(0);
  nn::Tensor out({t_len, out_dim_});
  // Encoding, lookups and aggregation per row are independent
  // ("embarrassingly parallel" per §V-A2). One workspace per block.
  common::parallel_for_blocks(t_len, [&](std::size_t, std::size_t r0, std::size_t r1) {
    query_into(rows.row(r0), r1 - r0, in_dim_, out.row(r0), out_dim_,
               thread_local_workspace());
  }, 16);
  return out;
}

nn::Tensor LinearKernel::query3d(const nn::Tensor& x) const {
  if (x.ndim() != 3) throw std::invalid_argument("LinearKernel::query3d expects [B,T,DI]");
  nn::Tensor flat = x.reshaped({x.dim(0) * x.dim(1), x.dim(2)});
  nn::Tensor out = query(flat);
  out.reshape({x.dim(0), x.dim(1), out_dim_});
  return out;
}

std::size_t LinearKernel::table_bytes() const { return table_.size() * sizeof(float); }

}  // namespace dart::tabular
