// Golden equivalence tests for the zero-allocation tabular inference engine:
// a deliberately naive reference implementation (scalar per-row encodes,
// per-output gather aggregation over the exposed [C][K][DO] table) must match
// the optimized batch path, across both the exact and hash-tree encoders, for
// the linear kernel and the attention kernel (exactly, at the shapes the
// vector paths run) and a seeded end-to-end TabularPredictor::forward
// (within 1e-6).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/configs.hpp"
#include "nn/transformer.hpp"
#include "tabular/attention_kernel.hpp"
#include "tabular/linear_kernel.hpp"
#include "tabular/tabular_predictor.hpp"
#include "tabular/tabularizer.hpp"

namespace dart::tabular {
namespace {

// ---------------------------------------------------------------- references

/// Naive LinearKernel::query: scalar encode per (row, subspace), then a
/// per-output gather over the table — the pre-optimization access pattern,
/// expressed against the documented [C][K][DO] layout.
nn::Tensor naive_linear_query(const LinearKernel& kernel, const nn::Tensor& rows) {
  const std::size_t n = rows.dim(0);
  const std::size_t di = kernel.in_dim();
  const std::size_t dout = kernel.out_dim();
  const std::size_t c_count = kernel.num_subspaces();
  const std::size_t k = kernel.num_prototypes();
  const std::size_t sub = di / c_count;
  const std::vector<float>& table = kernel.table();
  nn::Tensor out({n, dout});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> code(c_count);
    for (std::size_t c = 0; c < c_count; ++c) {
      code[c] = kernel.encoder(c).encode(rows.row(i) + c * sub);
    }
    for (std::size_t o = 0; o < dout; ++o) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < c_count; ++c) {
        acc += table[(c * k + code[c]) * dout + o];
      }
      out.at(i, o) = acc;
    }
  }
  return out;
}

/// Naive AttentionKernel::query (sigmoid-folded mode): scalar encodes,
/// gather aggregation, explicit V-column slices.
nn::Tensor naive_attention_query(const AttentionKernel& kernel, const nn::Tensor& q,
                                 const nn::Tensor& k, const nn::Tensor& v) {
  const std::size_t t_len = kernel.seq_len();
  const std::size_t dk = kernel.head_dim();
  const std::size_t kp = kernel.config().num_prototypes;
  const std::size_t ck = kernel.config().ck;
  const std::size_t ct = kernel.config().ct;
  const std::size_t sub_dk = dk / ck;
  const std::size_t sub_t = t_len / ct;
  // Stage 1: scores from the QK table.
  nn::Tensor scores({t_len, t_len});
  std::vector<std::uint32_t> qc(t_len * ck), kc(t_len * ck);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t c = 0; c < ck; ++c) {
      qc[t * ck + c] = kernel.q_encoder(c).encode(q.row(t) + c * sub_dk);
      kc[t * ck + c] = kernel.k_encoder(c).encode(k.row(t) + c * sub_dk);
    }
  }
  for (std::size_t t1 = 0; t1 < t_len; ++t1) {
    for (std::size_t t2 = 0; t2 < t_len; ++t2) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < ck; ++c) {
        acc += kernel.qk_table()[c * kp * kp + qc[t1 * ck + c] * kp + kc[t2 * ck + c]];
      }
      scores.at(t1, t2) = acc;
    }
  }
  // Stage 2: encode score rows and V columns, aggregate from the QKV table.
  std::vector<std::uint32_t> sc(t_len * ct), vc(dk * ct);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t c = 0; c < ct; ++c) {
      sc[t * ct + c] = kernel.s_encoder(c).encode(scores.row(t) + c * sub_t);
    }
  }
  std::vector<float> vcol(t_len);
  for (std::size_t d = 0; d < dk; ++d) {
    for (std::size_t t = 0; t < t_len; ++t) vcol[t] = v.at(t, d);
    for (std::size_t c = 0; c < ct; ++c) {
      vc[d * ct + c] = kernel.v_encoder(c).encode(vcol.data() + c * sub_t);
    }
  }
  nn::Tensor out({t_len, dk});
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t d = 0; d < dk; ++d) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < ct; ++c) {
        acc += kernel.qkv_table()[c * kp * kp + sc[t * ct + c] * kp + vc[d * ct + c]];
      }
      out.at(t, d) = acc;
    }
  }
  return out;
}

/// Naive TabularPredictor::forward_sample: Tensor arithmetic mirroring the
/// optimized raw-pointer path, built on the naive kernel references above.
nn::Tensor naive_forward_sample(const TabularPredictor& tab, const nn::Tensor& addr,
                                const nn::Tensor& pc) {
  const std::size_t t_len = tab.arch().seq_len;
  const std::size_t d = tab.arch().dim;
  const std::size_t dh = d / tab.arch().heads;
  nn::Tensor x = naive_linear_query(*tab.addr_kernel, addr);
  nn::Tensor xp = naive_linear_query(*tab.pc_kernel, pc);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] += xp[i] + tab.pos_encoding[i];
  for (const auto& layer : tab.layers) {
    nn::Tensor qkv = naive_linear_query(*layer.qkv, x);
    nn::Tensor concat({t_len, d});
    for (std::size_t h = 0; h < layer.heads.size(); ++h) {
      nn::Tensor q({t_len, dh}), k({t_len, dh}), v({t_len, dh});
      for (std::size_t t = 0; t < t_len; ++t) {
        const float* row = qkv.row(t);
        for (std::size_t j = 0; j < dh; ++j) {
          q.at(t, j) = row[h * dh + j];
          k.at(t, j) = row[d + h * dh + j];
          v.at(t, j) = row[2 * d + h * dh + j];
        }
      }
      nn::Tensor o = naive_attention_query(*layer.heads[h], q, k, v);
      for (std::size_t t = 0; t < t_len; ++t) {
        for (std::size_t j = 0; j < dh; ++j) concat.at(t, h * dh + j) = o.at(t, j);
      }
    }
    nn::Tensor attn = naive_linear_query(*layer.out_proj, concat);
    attn += x;
    x = layer.ln1.apply(attn);
    nn::Tensor hidden = naive_linear_query(*layer.ffn_hidden, x);
    for (std::size_t i = 0; i < hidden.numel(); ++i) {
      hidden[i] = hidden[i] > 0.0f ? hidden[i] : 0.0f;
    }
    nn::Tensor ffn = naive_linear_query(*layer.ffn_out, hidden);
    ffn += x;
    x = layer.ln2.apply(ffn);
  }
  x = tab.final_ln.apply(x);
  nn::Tensor per_token = naive_linear_query(*tab.head_kernel, x);
  nn::Tensor probs({tab.arch().out_dim});
  const float inv_t = 1.0f / static_cast<float>(t_len);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t j = 0; j < tab.arch().out_dim; ++j) {
      probs[j] += per_token.at(t, j) * inv_t;
    }
  }
  for (std::size_t j = 0; j < probs.numel(); ++j) probs[j] = tab.sigmoid_lut(probs[j]);
  return probs;
}

// -------------------------------------------------------------------- fixtures

class LinearKernelGolden : public ::testing::TestWithParam<pq::EncoderKind> {};

TEST_P(LinearKernelGolden, OptimizedMatchesNaiveReference) {
  // DO = 24 ends in a masked 8-column tail on AVX-512 builds; C = 1 stores
  // subspace 0's row as is. The reference starts its sums at 0.0f, so a -0
  // table entry reads +0 there; == treats the two as equal.
  const std::size_t di = 16, n = 200;
  for (const std::size_t dout : {24, 32}) {
    for (const std::size_t c_count : {1, 2, 4}) {
      nn::Tensor w = nn::Tensor::randn({dout, di}, 0.8f, 101);
      nn::Tensor b = nn::Tensor::randn({dout}, 0.5f, 102);
      nn::Tensor train = nn::Tensor::randn({256, di}, 1.0f, 103);
      KernelConfig cfg;
      cfg.num_prototypes = 32;
      cfg.num_subspaces = c_count;
      cfg.encoder = GetParam();
      LinearKernel kernel(w, b, train, cfg);
      nn::Tensor probe = nn::Tensor::randn({n, di}, 1.1f, 104);
      nn::Tensor fast = kernel.query(probe);
      nn::Tensor ref = naive_linear_query(kernel, probe);
      for (std::size_t i = 0; i < fast.numel(); ++i) {
        ASSERT_EQ(fast[i], ref[i]) << "DO=" << dout << " C=" << c_count << " flat index " << i;
      }
    }
  }
}

TEST_P(LinearKernelGolden, EncodeBatchMatchesScalarEncode) {
  nn::Tensor train = nn::Tensor::randn({300, 12}, 1.0f, 105);
  KernelConfig cfg;
  cfg.num_prototypes = 16;
  cfg.num_subspaces = 3;
  cfg.encoder = GetParam();
  nn::Tensor w = nn::Tensor::randn({5, 12}, 1.0f, 106);
  nn::Tensor b({5});
  LinearKernel kernel(w, b, train, cfg);
  nn::Tensor probe = nn::Tensor::randn({64, 12}, 1.3f, 107);
  for (std::size_t c = 0; c < cfg.num_subspaces; ++c) {
    const pq::Encoder& enc = kernel.encoder(c);
    std::vector<std::uint32_t> batch(probe.dim(0));
    enc.encode_batch(probe.data() + c * 4, 12, probe.dim(0), batch.data());
    for (std::size_t i = 0; i < probe.dim(0); ++i) {
      EXPECT_EQ(batch[i], enc.encode(probe.row(i) + c * 4)) << "row " << i << " subspace " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Encoders, LinearKernelGolden,
                         ::testing::Values(pq::EncoderKind::kExact, pq::EncoderKind::kHashTree));

/// Bit equality, with any NaN equal to any NaN.
bool same_float(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) || std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// A kernel over DI = 16 whose table holds NaN, +-inf and -0 among random
/// entries, so aggregated rows (and ReLU inputs) hold them too. Only
/// subspace 0's first 8 prototypes carry them, so most sums stay finite.
LinearKernel special_kernel(std::size_t dout, std::size_t c_count, pq::EncoderKind kind) {
  const std::size_t di = 16, k = 32;
  KernelConfig cfg;
  cfg.num_prototypes = k;
  cfg.num_subspaces = c_count;
  cfg.encoder = kind;
  const nn::Tensor noise = nn::Tensor::randn({c_count * k * dout}, 1.0f, 180 + dout + c_count);
  std::vector<float> table(noise.data(), noise.data() + noise.numel());
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f};
  for (std::size_t p = 0; p < 8; ++p) {
    for (std::size_t o = 0; o < dout; ++o) {
      if ((o + p) % 6 < 4) table[p * dout + o] = specials[(o + p) % 6];
    }
  }
  std::vector<std::unique_ptr<pq::Encoder>> encoders;
  for (std::size_t c = 0; c < c_count; ++c) {
    encoders.push_back(
        pq::make_encoder(kind, nn::Tensor::randn({k, di / c_count}, 1.0f, 190 + c)));
  }
  return LinearKernel::from_parts(cfg, di, dout, std::move(table), std::move(encoders));
}

class LinearKernelEpilogue : public ::testing::TestWithParam<pq::EncoderKind> {};

// Each epilogue against query_into with no epilogue followed by the step
// written out here, raw floats compared bit for bit. DO = 24 ends in a
// masked 8-column tail; n = 9 and 17 run past a period of 8 rows.
TEST_P(LinearKernelEpilogue, EachEpilogueEqualsItsStepAfterTheStore) {
  InferenceWorkspace ws;
  for (const std::size_t dout : {24, 32, 128}) {
    for (const std::size_t c_count : {1, 2, 4}) {
      const LinearKernel kernel = special_kernel(dout, c_count, GetParam());
      for (const std::size_t n : {1, 8, 9, 16, 17}) {
        const nn::Tensor in = nn::Tensor::randn({n, 16}, 1.1f, 200 + n);
        const std::size_t res_stride = dout + 5;
        const nn::Tensor res = nn::Tensor::randn({n, res_stride}, 1.0f, 210 + n);
        const std::size_t out_stride = dout + 3;
        std::vector<float> plain(n * out_stride);
        kernel.query_into(in.data(), n, 16, plain.data(), out_stride, ws);
        for (const std::size_t period : {std::size_t{0}, std::size_t{8}}) {
          std::vector<float> got(n * out_stride);
          kernel.query_into(in.data(), n, 16, got.data(), out_stride, ws,
                            Epilogue::add(res.data(), res_stride, period));
          for (std::size_t i = 0; i < n; ++i) {
            const float* r = res.data() + (period == 0 ? i : i % period) * res_stride;
            for (std::size_t o = 0; o < dout; ++o) {
              const float want = plain[i * out_stride + o] + r[o];
              ASSERT_PRED2(same_float, got[i * out_stride + o], want)
                  << "add DO=" << dout << " C=" << c_count << " n=" << n << " period "
                  << period << " row " << i << " col " << o;
            }
          }
        }
        std::vector<float> got(n * out_stride);
        kernel.query_into(in.data(), n, 16, got.data(), out_stride, ws, Epilogue::relu());
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t o = 0; o < dout; ++o) {
            const float v = plain[i * out_stride + o];
            const float want = v > 0.0f ? v : 0.0f;
            ASSERT_PRED2(same_float, got[i * out_stride + o], want)
                << "relu DO=" << dout << " C=" << c_count << " n=" << n << " row " << i
                << " col " << o << " input " << v;
          }
        }
      }
    }
  }
}

// query_mean_into against query_into followed by the mean written out
// here: per sample, from +0, each of its T rows times 1/T added in t order,
// one fused multiply-add per row where the build has FMA.
TEST_P(LinearKernelEpilogue, MeanEqualsTheMeanOfTheStoredRows) {
  InferenceWorkspace ws;
  for (const std::size_t dout : {24, 32, 128}) {
    for (const std::size_t c_count : {1, 2, 4}) {
      const LinearKernel kernel = special_kernel(dout, c_count, GetParam());
      for (const std::size_t t_len : {1, 3, 8}) {
        for (const std::size_t n : {1, 8, 9, 16, 17}) {
          const std::size_t rows = n * t_len;
          const nn::Tensor in = nn::Tensor::randn({rows, 16}, 1.1f, 220 + rows);
          std::vector<float> plain(rows * dout);
          kernel.query_into(in.data(), rows, 16, plain.data(), dout, ws);
          const std::size_t out_stride = dout + 2;
          std::vector<float> got(n * out_stride);
          kernel.query_mean_into(in.data(), n, t_len, 16, got.data(), out_stride, ws);
          const float inv_t = 1.0f / static_cast<float>(t_len);
          for (std::size_t s = 0; s < n; ++s) {
            for (std::size_t o = 0; o < dout; ++o) {
              float want = 0.0f;
              for (std::size_t t = 0; t < t_len; ++t) {
                const float row = plain[(s * t_len + t) * dout + o];
#if defined(__FMA__)
                want = std::fma(row, inv_t, want);
#else
                want += row * inv_t;
#endif
              }
              ASSERT_PRED2(same_float, got[s * out_stride + o], want)
                  << "DO=" << dout << " C=" << c_count << " T=" << t_len << " n=" << n
                  << " sample " << s << " col " << o;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Encoders, LinearKernelEpilogue,
                         ::testing::Values(pq::EncoderKind::kExact, pq::EncoderKind::kHashTree));

class AttentionKernelGolden : public ::testing::TestWithParam<pq::EncoderKind> {};

TEST_P(AttentionKernelGolden, OptimizedMatchesNaiveReference) {
  const std::size_t n = 128, t = 8, dk = 8;
  nn::Tensor q = nn::Tensor::randn({n, t, dk}, 0.9f, 111);
  nn::Tensor k = nn::Tensor::randn({n, t, dk}, 0.9f, 112);
  nn::Tensor v = nn::Tensor::randn({n, t, dk}, 0.9f, 113);
  AttentionKernelConfig cfg;
  cfg.num_prototypes = 32;
  cfg.ck = 2;
  cfg.ct = 2;
  cfg.kmeans_iters = 8;
  cfg.encoder = GetParam();
  AttentionKernel kernel(q, k, v, cfg);
  for (std::size_t s = 0; s < 8; ++s) {
    nn::Tensor qs({t, dk}), ks({t, dk}), vs({t, dk});
    std::copy(q.data() + s * t * dk, q.data() + (s + 1) * t * dk, qs.data());
    std::copy(k.data() + s * t * dk, k.data() + (s + 1) * t * dk, ks.data());
    std::copy(v.data() + s * t * dk, v.data() + (s + 1) * t * dk, vs.data());
    nn::Tensor fast = kernel.query(qs, ks, vs);
    nn::Tensor ref = naive_attention_query(kernel, qs, ks, vs);
    for (std::size_t i = 0; i < fast.numel(); ++i) {
      EXPECT_NEAR(fast[i], ref[i], 1e-6f) << "sample " << s << " flat index " << i;
    }
  }
}

TEST_P(AttentionKernelGolden, BatchIsBitExactAtVectorShapes) {
  // The paper student's head, T=8 and Dk=16 at K=128: score rows gather 8
  // lanes and output rows 16 on AVX-512 builds. T=12, Dk=24 also runs a
  // 12-lane masked chunk and a 16 + 8 split. n = 17 runs a 16-row encoder
  // group plus a short one.
  const std::size_t n_train = 256;
  for (const auto [t, dk] : {std::pair<std::size_t, std::size_t>{8, 16}, {12, 24}}) {
    nn::Tensor q = nn::Tensor::randn({n_train, t, dk}, 0.9f, 141);
    nn::Tensor k = nn::Tensor::randn({n_train, t, dk}, 0.9f, 142);
    nn::Tensor v = nn::Tensor::randn({n_train, t, dk}, 0.9f, 143);
    AttentionKernelConfig cfg;
    cfg.num_prototypes = 128;
    cfg.ck = 2;
    cfg.ct = 2;
    cfg.kmeans_iters = 4;
    cfg.encoder = GetParam();
    AttentionKernel kernel(q, k, v, cfg);
    InferenceWorkspace ws;
    for (const std::size_t n : {1, 16, 17}) {
      nn::Tensor pq = nn::Tensor::randn({n, t, dk}, 1.0f, 150 + n);
      nn::Tensor pk = nn::Tensor::randn({n, t, dk}, 1.0f, 160 + n);
      nn::Tensor pv = nn::Tensor::randn({n, t, dk}, 1.0f, 170 + n);
      std::vector<float> fast(n * t * dk);
      kernel.query_batch_into(pq.data(), dk, pk.data(), dk, pv.data(), dk, n, fast.data(), dk, ws);
      for (std::size_t s = 0; s < n; ++s) {
        nn::Tensor qs({t, dk}), ks({t, dk}), vs({t, dk});
        std::copy(pq.data() + s * t * dk, pq.data() + (s + 1) * t * dk, qs.data());
        std::copy(pk.data() + s * t * dk, pk.data() + (s + 1) * t * dk, ks.data());
        std::copy(pv.data() + s * t * dk, pv.data() + (s + 1) * t * dk, vs.data());
        nn::Tensor ref = naive_attention_query(kernel, qs, ks, vs);
        for (std::size_t i = 0; i < ref.numel(); ++i) {
          ASSERT_EQ(fast[s * t * dk + i], ref[i])
              << "T=" << t << " Dk=" << dk << " n=" << n << " sample " << s << " index " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Encoders, AttentionKernelGolden,
                         ::testing::Values(pq::EncoderKind::kExact, pq::EncoderKind::kHashTree));

class EndToEndGolden : public ::testing::TestWithParam<pq::EncoderKind> {};

TEST_P(EndToEndGolden, BatchedForwardMatchesNaiveReference) {
  // Seeded, untrained model — tabularize exercises the real builder path.
  nn::ModelConfig arch = core::paper_student_config();
  nn::AddressPredictor model(arch, /*seed=*/42);
  const std::size_t n = 96;
  nn::Tensor addr = nn::Tensor::randn({n, arch.seq_len, arch.addr_dim}, 1.0f, 121);
  nn::Tensor pc = nn::Tensor::randn({n, arch.seq_len, arch.pc_dim}, 1.0f, 122);
  TabularizeOptions opt;
  opt.tables = TableConfig::uniform(16, 2);
  opt.fine_tune = false;
  opt.kmeans_iters = 4;
  opt.max_train_samples = 96;
  opt.encoder = GetParam();
  TabularPredictor tab = tabularize(model, addr, pc, opt);

  const std::size_t b_sz = 12;
  nn::Tensor probe_addr = nn::Tensor::randn({b_sz, arch.seq_len, arch.addr_dim}, 1.0f, 123);
  nn::Tensor probe_pc = nn::Tensor::randn({b_sz, arch.seq_len, arch.pc_dim}, 1.0f, 124);
  nn::Tensor batched = tab.forward(probe_addr, probe_pc);
  for (std::size_t b = 0; b < b_sz; ++b) {
    nn::Tensor a({arch.seq_len, arch.addr_dim}), p({arch.seq_len, arch.pc_dim});
    std::copy(probe_addr.data() + b * a.numel(), probe_addr.data() + (b + 1) * a.numel(),
              a.data());
    std::copy(probe_pc.data() + b * p.numel(), probe_pc.data() + (b + 1) * p.numel(), p.data());
    nn::Tensor ref = naive_forward_sample(tab, a, p);
    nn::Tensor single = tab.forward_sample(a, p);
    for (std::size_t j = 0; j < ref.numel(); ++j) {
      EXPECT_NEAR(batched.at(b, j), ref[j], 1e-6f) << "sample " << b << " output " << j;
      EXPECT_NEAR(single[j], ref[j], 1e-6f) << "sample " << b << " output " << j;
    }
  }

  // One block call over 40 samples runs as sub-blocks of 16 + 16 + 8 and
  // must equal 40 single-sample calls bit for bit.
  const std::size_t n_long = 40;
  nn::Tensor long_addr = nn::Tensor::randn({n_long, arch.seq_len, arch.addr_dim}, 1.0f, 125);
  nn::Tensor long_pc = nn::Tensor::randn({n_long, arch.seq_len, arch.pc_dim}, 1.0f, 126);
  InferenceWorkspace ws(tab.tabular_arch(n_long));
  std::vector<float> block(n_long * arch.out_dim), singles(n_long * arch.out_dim);
  tab.forward_block_into(long_addr.data(), long_pc.data(), n_long, block.data(), ws);
  for (std::size_t b = 0; b < n_long; ++b) {
    tab.forward_sample_into(long_addr.data() + b * arch.seq_len * arch.addr_dim,
                            long_pc.data() + b * arch.seq_len * arch.pc_dim,
                            singles.data() + b * arch.out_dim, ws);
  }
  EXPECT_EQ(0, std::memcmp(block.data(), singles.data(), block.size() * sizeof(float)));
}

INSTANTIATE_TEST_SUITE_P(Encoders, EndToEndGolden,
                         ::testing::Values(pq::EncoderKind::kExact, pq::EncoderKind::kHashTree));

TEST(TabularPredictorEdge, EmptyBatchReturnsEmptyTensor) {
  nn::ModelConfig arch = core::paper_student_config();
  nn::AddressPredictor model(arch, 43);
  nn::Tensor addr = nn::Tensor::randn({32, arch.seq_len, arch.addr_dim}, 1.0f, 131);
  nn::Tensor pc = nn::Tensor::randn({32, arch.seq_len, arch.pc_dim}, 1.0f, 132);
  TabularizeOptions opt;
  opt.tables = TableConfig::uniform(8, 2);
  opt.fine_tune = false;
  opt.kmeans_iters = 2;
  TabularPredictor tab = tabularize(model, addr, pc, opt);
  nn::Tensor empty_addr({0, arch.seq_len, arch.addr_dim});
  nn::Tensor empty_pc({0, arch.seq_len, arch.pc_dim});
  nn::Tensor out = tab.forward(empty_addr, empty_pc);
  EXPECT_EQ(out.dim(0), 0u);
  EXPECT_EQ(out.dim(1), arch.out_dim);
}

}  // namespace
}  // namespace dart::tabular
