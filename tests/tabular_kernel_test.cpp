// Tests for the tabularization kernels (§V): linear kernel with bias
// folding, attention kernel with double quantization, and the sigmoid LUT.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/linear.hpp"
#include "nn/ops.hpp"
#include "tabular/attention_kernel.hpp"
#include "tabular/linear_kernel.hpp"
#include "tabular/lut.hpp"
#include "tabular/tabular_predictor.hpp"

namespace dart::tabular {
namespace {

TEST(LinearKernel, ExactWhenInputsAreThePrototypes) {
  // With K >= distinct inputs, quantization is lossless and the kernel must
  // reproduce W x + b exactly (up to float rounding).
  const std::size_t di = 4, dout = 3;
  nn::Tensor w = nn::Tensor::randn({dout, di}, 1.0f, 1);
  nn::Tensor b = nn::Tensor::randn({dout}, 1.0f, 2);
  nn::Tensor rows({4, di});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < di; ++j) rows.at(i, j) = static_cast<float>(i * 10 + j);
  }
  KernelConfig cfg;
  cfg.num_prototypes = 4;
  cfg.num_subspaces = 2;
  cfg.kmeans_iters = 30;
  LinearKernel kernel(w, b, rows, cfg);
  nn::Tensor out = kernel.query(rows);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t o = 0; o < dout; ++o) {
      float exact = b[o];
      for (std::size_t j = 0; j < di; ++j) exact += w.at(o, j) * rows.at(i, j);
      EXPECT_NEAR(out.at(i, o), exact, 1e-2f);
    }
  }
}

TEST(LinearKernel, BiasIsFoldedIntoSubspaceZero) {
  // All-zero weights: output must equal the bias for any input.
  nn::Tensor w({2, 4});
  nn::Tensor b({2});
  b[0] = 3.5f;
  b[1] = -1.25f;
  nn::Tensor rows = nn::Tensor::randn({64, 4}, 1.0f, 3);
  KernelConfig cfg;
  cfg.num_prototypes = 8;
  cfg.num_subspaces = 2;
  LinearKernel kernel(w, b, rows, cfg);
  nn::Tensor out = kernel.query(rows);
  for (std::size_t i = 0; i < out.dim(0); ++i) {
    EXPECT_FLOAT_EQ(out.at(i, 0), 3.5f);
    EXPECT_FLOAT_EQ(out.at(i, 1), -1.25f);
  }
}

class LinearKernelK : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LinearKernelK, ApproximationImprovesWithK) {
  const std::size_t k = GetParam();
  const std::size_t di = 8, dout = 4;
  nn::Tensor w = nn::Tensor::randn({dout, di}, 0.5f, 4);
  nn::Tensor b = nn::Tensor::randn({dout}, 0.5f, 5);
  nn::Tensor rows = nn::Tensor::randn({512, di}, 1.0f, 6);
  auto mse_for = [&](std::size_t protos) {
    KernelConfig cfg;
    cfg.num_prototypes = protos;
    cfg.num_subspaces = 2;
    LinearKernel kernel(w, b, rows, cfg);
    nn::Tensor approx = kernel.query(rows);
    double mse = 0.0;
    for (std::size_t i = 0; i < rows.dim(0); ++i) {
      for (std::size_t o = 0; o < dout; ++o) {
        float exact = b[o];
        for (std::size_t j = 0; j < di; ++j) exact += w.at(o, j) * rows.at(i, j);
        const double d = approx.at(i, o) - exact;
        mse += d * d;
      }
    }
    return mse;
  };
  EXPECT_LE(mse_for(k), mse_for(std::max<std::size_t>(2, k / 8)) * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Ks, LinearKernelK, ::testing::Values(16, 32, 64, 128));

TEST(LinearKernel, TableBytesMatchFormula) {
  nn::Tensor w({6, 8}), b({6});
  nn::Tensor rows = nn::Tensor::randn({32, 8}, 1.0f, 7);
  KernelConfig cfg;
  cfg.num_prototypes = 16;
  cfg.num_subspaces = 4;
  LinearKernel kernel(w, b, rows, cfg);
  EXPECT_EQ(kernel.table_bytes(), 6u * 16u * 4u * sizeof(float));
}

TEST(LinearKernel, Query3dPreservesBatchShape) {
  nn::Tensor w = nn::Tensor::randn({3, 4}, 1.0f, 8);
  nn::Tensor b({3});
  nn::Tensor rows = nn::Tensor::randn({40, 4}, 1.0f, 9);
  KernelConfig cfg;
  cfg.num_prototypes = 8;
  cfg.num_subspaces = 2;
  LinearKernel kernel(w, b, rows, cfg);
  nn::Tensor x = nn::Tensor::randn({5, 8, 4}, 1.0f, 10);
  nn::Tensor y = kernel.query3d(x);
  ASSERT_EQ(y.ndim(), 3u);
  EXPECT_EQ(y.dim(0), 5u);
  EXPECT_EQ(y.dim(1), 8u);
  EXPECT_EQ(y.dim(2), 3u);
}

TEST(LinearKernel, RejectsBadShapes) {
  nn::Tensor w({3, 4}), b({3});
  nn::Tensor rows({10, 5});  // DI mismatch
  KernelConfig cfg;
  EXPECT_THROW(LinearKernel(w, b, rows, cfg), std::invalid_argument);
  nn::Tensor rows2({10, 4});
  cfg.num_subspaces = 3;  // does not divide 4
  EXPECT_THROW(LinearKernel(w, b, rows2, cfg), std::invalid_argument);
}

// ------------------------------------------------------------------ attention

/// Exact single-head attention with the kernel's sigmoid activation (Eq. 14
/// semantics) for comparison.
nn::Tensor exact_attention_sigmoid(const nn::Tensor& q, const nn::Tensor& k,
                                   const nn::Tensor& v) {
  const std::size_t t = q.dim(0), dk = q.dim(1);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  nn::Tensor scores, out({t, dk});
  nn::ops::matmul_nt(q, k, scores);
  for (std::size_t i = 0; i < scores.numel(); ++i) {
    scores[i] = nn::ops::sigmoid(scores[i] * scale);
  }
  nn::Tensor res;
  nn::ops::matmul(scores, v, res);
  return res;
}

AttentionKernelConfig attn_cfg(std::size_t k, std::size_t ck, std::size_t ct) {
  AttentionKernelConfig cfg;
  cfg.num_prototypes = k;
  cfg.ck = ck;
  cfg.ct = ct;
  cfg.kmeans_iters = 15;
  return cfg;
}

TEST(AttentionKernel, ApproxScoresTrackExactScores) {
  const std::size_t n = 256, t = 4, dk = 8;
  nn::Tensor q = nn::Tensor::randn({n, t, dk}, 1.0f, 11);
  nn::Tensor k = nn::Tensor::randn({n, t, dk}, 1.0f, 12);
  nn::Tensor v = nn::Tensor::randn({n, t, dk}, 1.0f, 13);
  AttentionKernel kernel(q, k, v, attn_cfg(96, 2, 2));
  // Average correlation between exact and approximated scores on samples.
  double cos_sum = 0.0;
  for (std::size_t s = 0; s < 32; ++s) {
    nn::Tensor qs({t, dk}), ks({t, dk});
    std::copy(q.data() + s * t * dk, q.data() + (s + 1) * t * dk, qs.data());
    std::copy(k.data() + s * t * dk, k.data() + (s + 1) * t * dk, ks.data());
    nn::Tensor approx = kernel.approx_scores(qs, ks);
    nn::Tensor exact;
    nn::ops::matmul_nt(qs, ks, exact);
    cos_sum += nn::ops::cosine_similarity(approx, exact);
  }
  EXPECT_GT(cos_sum / 32.0, 0.85);
}

TEST(AttentionKernel, QueryApproximatesSigmoidAttention) {
  const std::size_t n = 384, t = 4, dk = 8;
  nn::Tensor q = nn::Tensor::randn({n, t, dk}, 0.7f, 14);
  nn::Tensor k = nn::Tensor::randn({n, t, dk}, 0.7f, 15);
  nn::Tensor v = nn::Tensor::randn({n, t, dk}, 0.7f, 16);
  AttentionKernel kernel(q, k, v, attn_cfg(128, 2, 2));
  double cos_sum = 0.0;
  for (std::size_t s = 0; s < 32; ++s) {
    nn::Tensor qs({t, dk}), ks({t, dk}), vs({t, dk});
    std::copy(q.data() + s * t * dk, q.data() + (s + 1) * t * dk, qs.data());
    std::copy(k.data() + s * t * dk, k.data() + (s + 1) * t * dk, ks.data());
    std::copy(v.data() + s * t * dk, v.data() + (s + 1) * t * dk, vs.data());
    nn::Tensor approx = kernel.query(qs, ks, vs);
    nn::Tensor exact = exact_attention_sigmoid(qs, ks, vs);
    cos_sum += nn::ops::cosine_similarity(approx, exact);
  }
  EXPECT_GT(cos_sum / 32.0, 0.8);
}

TEST(AttentionKernel, SoftmaxAtQueryModeWorks) {
  const std::size_t n = 256, t = 4, dk = 8;
  nn::Tensor q = nn::Tensor::randn({n, t, dk}, 0.7f, 17);
  nn::Tensor k = nn::Tensor::randn({n, t, dk}, 0.7f, 18);
  nn::Tensor v = nn::Tensor::randn({n, t, dk}, 0.7f, 19);
  AttentionKernelConfig cfg = attn_cfg(64, 2, 2);
  cfg.activation = AttentionActivation::kSoftmaxAtQuery;
  AttentionKernel kernel(q, k, v, cfg);
  nn::Tensor qs({t, dk}), ks({t, dk}), vs({t, dk});
  std::copy(q.data(), q.data() + t * dk, qs.data());
  std::copy(k.data(), k.data() + t * dk, ks.data());
  std::copy(v.data(), v.data() + t * dk, vs.data());
  nn::Tensor out = kernel.query(qs, ks, vs);
  // Softmax attention output is a convex combination of V rows: bounded by
  // V's extremes per column.
  for (std::size_t d = 0; d < dk; ++d) {
    float lo = vs.at(0, d), hi = vs.at(0, d);
    for (std::size_t tt = 1; tt < t; ++tt) {
      lo = std::min(lo, vs.at(tt, d));
      hi = std::max(hi, vs.at(tt, d));
    }
    for (std::size_t tt = 0; tt < t; ++tt) {
      EXPECT_GE(out.at(tt, d), lo - 1.0f);
      EXPECT_LE(out.at(tt, d), hi + 1.0f);
    }
  }
}

TEST(AttentionKernel, TableBytesAre2KSquaredTimesC) {
  const std::size_t n = 64, t = 4, dk = 8, k = 16;
  nn::Tensor q = nn::Tensor::randn({n, t, dk}, 1.0f, 20);
  nn::Tensor kk = nn::Tensor::randn({n, t, dk}, 1.0f, 21);
  nn::Tensor v = nn::Tensor::randn({n, t, dk}, 1.0f, 22);
  AttentionKernel kernel(q, kk, v, attn_cfg(k, 2, 2));
  // QK table: Ck * K^2; QKV table: Ct * K^2 (the 2K^2 optimization vs K^3).
  EXPECT_EQ(kernel.table_bytes(), (2u + 2u) * k * k * sizeof(float));
}

TEST(AttentionKernel, RejectsIndivisibleDims) {
  nn::Tensor q({4, 4, 6}), k({4, 4, 6}), v({4, 4, 6});
  EXPECT_THROW(AttentionKernel(q, k, v, attn_cfg(8, 4, 2)), std::invalid_argument);
  nn::Tensor q2({4, 5, 8}), k2({4, 5, 8}), v2({4, 5, 8});
  EXPECT_THROW(AttentionKernel(q2, k2, v2, attn_cfg(8, 2, 2)), std::invalid_argument);
}

// ----------------------------------------------------------------------- LUT

TEST(SigmoidLut, BoundedErrorAcrossRange) {
  SigmoidLut lut;
  float max_err = 0.0f;
  for (float x = -10.0f; x <= 10.0f; x += 0.003f) {
    const float exact = 1.0f / (1.0f + std::exp(-x));
    max_err = std::max(max_err, std::fabs(lut(x) - exact));
  }
  // Cell width is 1/16; worst-case error ~ width/2 * max slope (1/4) plus
  // the clamp tails.
  EXPECT_LT(max_err, 0.02f);
}

TEST(SigmoidLut, MonotonicAndClamped) {
  SigmoidLut lut;
  EXPECT_EQ(lut(-100.0f), 0.0f);
  EXPECT_EQ(lut(100.0f), 1.0f);
  float prev = -1.0f;
  for (float x = -9.0f; x <= 9.0f; x += 0.25f) {
    EXPECT_GE(lut(x), prev);
    prev = lut(x);
  }
}

/// The scalar LayerNorm loop of LnParams::apply_into, verbatim: the portable
/// path, and the loop whose compiled form the vector path reproduces.
void reference_layernorm(const LnParams& ln, const float* x, float* y, std::size_t m) {
  const std::size_t d = ln.gamma.numel();
  const float* g = ln.gamma.data();
  const float* b = ln.beta.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * d;
    float* yrow = y + i * d;
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
    const float inv = 1.0f / std::sqrt(var + ln.eps);
    for (std::size_t jj = 0; jj < d; ++jj) {
      yrow[jj] = (row[jj] - mean) * inv * g[jj] + b[jj];
    }
  }
}

/// The same loop with the FMA contractions of a Release build spelled out
/// (DESIGN.md §6): each run of 32 floats of the variance sum rounds its
/// products on their own; the iterations after it, the tail and the output
/// are FMAs. This is the arithmetic of the AVX-512 path.
void contracted_layernorm(const LnParams& ln, const float* x, float* y, std::size_t m) {
  const std::size_t d = ln.gamma.numel();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * d;
    float* yrow = y + i * d;
    float s[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    std::size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      for (std::size_t l = 0; l < 4; ++l) s[l] += row[j + l];
    }
    float mean = (s[0] + s[1]) + (s[2] + s[3]);
    for (; j < d; ++j) mean += row[j];
    mean /= static_cast<float>(d);
    float v[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    const std::size_t runs_end = d / 32 * 32;
    for (j = 0; j + 4 <= d; j += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        const float diff = row[j + l] - mean;
        if (j < runs_end) {
          volatile float sq = diff * diff;  // rounded on its own
          v[l] += sq;
        } else {
          v[l] = std::fma(diff, diff, v[l]);
        }
      }
    }
    float var = (v[0] + v[1]) + (v[2] + v[3]);
    for (; j < d; ++j) var = std::fma(row[j] - mean, row[j] - mean, var);
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + ln.eps);
    for (std::size_t jj = 0; jj < d; ++jj) {
      yrow[jj] = std::fma((row[jj] - mean) * inv, ln.gamma[jj], ln.beta[jj]);
    }
  }
}

TEST(LnParams, ApplyIntoIsBitIdenticalToScalar) {
  std::size_t scalar_mismatches = 0;  // widths where got != the verbatim loop
  bool release_contraction = true;    // the verbatim loop compiled as in Release
  // AVX-512 builds normalize four rows per zmm, two zmm per step: m = 1, 9
  // and 17 end in a one-row step, and m = 4 fills exactly one zmm.
  for (const std::size_t m : {1, 4, 9, 17}) {
    for (std::size_t d : {32, 36, 64, 30}) {  // 30 leaves a 2-wide tail
      LnParams ln;
      ln.gamma = nn::Tensor::randn({d}, 1.0f, 40 + d);
      ln.beta = nn::Tensor::randn({d}, 1.0f, 50 + d);
      nn::Tensor x = nn::Tensor::randn({m, d}, 3.0f, 60 + d + m);
      for (std::size_t j = 0; j < d; ++j) x.at(m / 2, j) += 1000.0f;  // cancellation-prone row
      const std::size_t bytes = m * d * sizeof(float);
      std::vector<float> got(m * d), scalar(m * d);
      ln.apply_into(x.data(), got.data(), m);
      reference_layernorm(ln, x.data(), scalar.data(), m);
      if (std::memcmp(got.data(), scalar.data(), bytes) != 0) ++scalar_mismatches;
#if defined(__AVX512F__) && defined(__FMA__)
      std::vector<float> contracted(m * d);
      contracted_layernorm(ln, x.data(), contracted.data(), m);
      EXPECT_EQ(std::memcmp(got.data(), contracted.data(), bytes), 0) << "m=" << m << " d=" << d;
      if (std::memcmp(scalar.data(), contracted.data(), bytes) != 0) release_contraction = false;
#endif
      ln.apply_into(x.data(), x.data(), m);  // in place, as the predictor calls it
      EXPECT_EQ(std::memcmp(x.data(), got.data(), bytes), 0) << "m=" << m << " d=" << d;
    }
  }
  // The vector path equals the scalar loop as a Release build compiles it;
  // -O1/-O2 and sanitizer builds contract that loop differently.
  if (!release_contraction) {
    GTEST_SKIP() << "this build contracts the scalar LayerNorm loop unlike a Release build "
                    "(DESIGN.md §6); only the vector path's arithmetic was checked";
  }
  EXPECT_EQ(scalar_mismatches, 0u);
}

// apply_batch (16 lanes on AVX-512 builds) and apply against operator(),
// bit for bit, at the clamp edges, +-inf and NaN, with n not a multiple of 16.
TEST(SigmoidLut, ApplyMatchesScalar) {
  SigmoidLut lut;
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x = {-8.0f, 8.0f, -inf, inf, std::numeric_limits<float>::quiet_NaN(),
                          std::nextafter(-8.0f, 0.0f), std::nextafter(8.0f, 0.0f),
                          std::nextafter(-8.0f, -inf), std::nextafter(8.0f, inf), 0.0f, -0.0f};
  const nn::Tensor noise = nn::Tensor::randn({26}, 6.0f, 29);
  x.insert(x.end(), noise.data(), noise.data() + noise.numel());  // 37 values
  std::vector<float> want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) want[i] = lut(x[i]);
  for (std::size_t n : {x.size(), std::size_t{16}, std::size_t{5}}) {
    std::vector<float> got(n);
    lut.apply_batch(x.data(), n, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0) << "n=" << n;
  }
  nn::Tensor xt({x.size()});
  std::copy(x.begin(), x.end(), xt.data());
  const nn::Tensor yt = lut.apply(xt);
  EXPECT_EQ(std::memcmp(yt.data(), want.data(), want.size() * sizeof(float)), 0);
  lut.apply_batch(x.data(), x.size(), x.data());  // in place, as the predictor calls it
  EXPECT_EQ(std::memcmp(x.data(), want.data(), want.size() * sizeof(float)), 0);
}

}  // namespace
}  // namespace dart::tabular
