#include "tabular/linear_kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "pq/kmeans.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#define DART_AGG_SIMD 1
#else
#define DART_AGG_SIMD 0
#endif

namespace dart::tabular {

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

void LinearKernel::query_into(const float* rows, std::size_t n, std::size_t row_stride,
                              float* out, std::size_t out_stride,
                              InferenceWorkspace& ws) const {
  const std::size_t k = config_.num_prototypes;
  const std::size_t c_count = config_.num_subspaces;
  const auto m = ws.mark();
  // Codes in subspace-major (SoA) order: codes[c * n + i].
  std::uint32_t* codes = ws.codes(c_count * n);
  for (std::size_t c = 0; c < c_count; ++c) {
    encoders_[c]->encode_batch(rows + c * sub_dim_, row_stride, n, codes + c * n);
  }
  const float* tbl = table_.data();
  for (std::size_t i = 0; i < n; ++i) {
    float* orow = out + i * out_stride;
    // Subspace 0 initializes (bias is folded there), the rest accumulate:
    // C contiguous row-adds of length DO.
    const float* t0 = tbl + codes[i] * out_dim_;
#if DART_AGG_SIMD
    // The same sums in registers: per chunk of 16 columns, subspace 0's
    // row plus the later subspaces in c order, stored once.
    for (std::size_t o = 0; o < out_dim_; o += 16) {
      const auto mask = out_dim_ - o >= 16 ? __mmask16(0xFFFF)
                                           : static_cast<__mmask16>((1u << (out_dim_ - o)) - 1u);
      __m512 acc = _mm512_maskz_loadu_ps(mask, t0 + o);
      for (std::size_t c = 1; c < c_count; ++c) {
        const float* tc = tbl + (c * k + codes[c * n + i]) * out_dim_;
        acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(mask, tc + o));
      }
      _mm512_mask_storeu_ps(orow + o, mask, acc);
    }
#else
    std::copy(t0, t0 + out_dim_, orow);
    for (std::size_t c = 1; c < c_count; ++c) {
      const float* tc = tbl + (c * k + codes[c * n + i]) * out_dim_;
      for (std::size_t o = 0; o < out_dim_; ++o) orow[o] += tc[o];
    }
#endif
  }
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
