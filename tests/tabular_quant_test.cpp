// Tests for the quantized inference path (DESIGN.md §10): the per-column
// quantization scheme and its C·s_o/2 rounding-error budget, bit-identity
// between the SIMD aggregation kernels and the always-scalar golden
// reference, the vpshufb fast-path selection rule, kernel- and
// predictor-level quantized-vs-exact tolerances, the `.dart` QNTT chunk
// round trip (bit-exact, with corruption/truncation negatives and the
// float-fallback for artifacts that predate the chunk), and the knob
// plumbing (parse_quant_mode, DART_QUANT, load-time requantization).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/configs.hpp"
#include "io/artifact.hpp"
#include "nn/tensor.hpp"
#include "nn/transformer.hpp"
#include "tabular/linear_kernel.hpp"
#include "tabular/quant.hpp"
#include "tabular/tabularizer.hpp"

namespace dart {
namespace {

using tabular::QuantMode;
using tabular::QuantizedTable;

/// Deterministic float [C][K][DO] table plus SoA codes for `n` queries.
struct TableFixture {
  std::size_t c, k, dout, n;
  std::vector<float> table;          // [C][K][DO]
  std::vector<std::uint32_t> codes;  // codes[c * n + i]

  TableFixture(std::size_t c_, std::size_t k_, std::size_t dout_, std::size_t n_,
               std::uint64_t seed)
      : c(c_), k(k_), dout(dout_), n(n_) {
    nn::Tensor t = nn::Tensor::randn({c * k, dout}, 2.5f, seed);
    table.assign(t.data(), t.data() + t.numel());
    // A constant column exercises the s_o = 0 exact-encoding path.
    for (std::size_t ck = 0; ck < c * k; ++ck) table[ck * dout] = 0.75f;
    std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    codes.resize(c * n);
    for (auto& code : codes) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      code = static_cast<std::uint32_t>((state >> 33) % k);
    }
  }

  /// Exact float aggregation of query i, column o, accumulated in double.
  double exact(std::size_t i, std::size_t o) const {
    double acc = 0.0;
    for (std::size_t cc = 0; cc < c; ++cc) {
      acc += table[((cc * k) + codes[cc * n + i]) * dout + o];
    }
    return acc;
  }
};

void expect_within_budget(const TableFixture& fx, const QuantizedTable& qt) {
  std::vector<float> out(fx.n * fx.dout);
  tabular::aggregate_quantized(qt, fx.codes.data(), fx.n, out.data(), fx.dout);
  for (std::size_t i = 0; i < fx.n; ++i) {
    for (std::size_t o = 0; o < fx.dout; ++o) {
      const double exact = fx.exact(i, o);
      // The §10 budget is pure rounding: C·s_o/2, plus float headroom for
      // the dequantization affine itself.
      const double bound = qt.error_bound(o) * (1.0 + 1e-5) + 1e-5;
      EXPECT_NEAR(out[i * fx.dout + o], exact, bound)
          << "query " << i << " column " << o;
    }
  }
}

void expect_simd_matches_reference(const TableFixture& fx, const QuantizedTable& qt) {
  std::vector<float> fast(fx.n * fx.dout, -1.0f), ref(fx.n * fx.dout, -2.0f);
  tabular::aggregate_quantized(qt, fx.codes.data(), fx.n, fast.data(), fx.dout);
  tabular::aggregate_quantized_reference(qt, fx.codes.data(), fx.n, ref.data(), fx.dout);
  ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(), fast.size() * sizeof(float)))
      << "SIMD aggregation is not bit-identical to the scalar reference";
}

// ------------------------------------------------------------ mode parsing

TEST(QuantMode, NamesAndParsingRoundTrip) {
  for (QuantMode mode : {QuantMode::kOff, QuantMode::kInt16, QuantMode::kInt8}) {
    EXPECT_EQ(mode, tabular::parse_quant_mode(tabular::quant_mode_name(mode)));
  }
  EXPECT_THROW(tabular::parse_quant_mode("int32"), std::invalid_argument);
  EXPECT_THROW(tabular::parse_quant_mode(""), std::invalid_argument);
  EXPECT_THROW(tabular::parse_quant_mode("INT8"), std::invalid_argument);
}

TEST(QuantMode, EnvKnobParsesAndRejectsTypos) {
  ::setenv("DART_QUANT", "int8", 1);
  EXPECT_EQ(QuantMode::kInt8, core::quant_mode_from_env());
  ::setenv("DART_QUANT", "bogus", 1);
  EXPECT_THROW(core::quant_mode_from_env(), std::invalid_argument);
  ::unsetenv("DART_QUANT");
  EXPECT_EQ(QuantMode::kOff, core::quant_mode_from_env());
}

// --------------------------------------------------------- error budget

TEST(QuantizeTable, Int16WithinErrorBudget) {
  TableFixture fx(/*c=*/4, /*k=*/32, /*dout=*/37, /*n=*/64, /*seed=*/101);
  QuantizedTable qt = tabular::quantize_table(fx.table.data(), fx.c, fx.k, fx.dout,
                                              QuantMode::kInt16);
  EXPECT_EQ(fx.c * fx.k * fx.dout, qt.q16.size());
  EXPECT_TRUE(qt.q8.empty());
  expect_within_budget(fx, qt);
}

TEST(QuantizeTable, Int8RowPathWithinErrorBudget) {
  TableFixture fx(/*c=*/4, /*k=*/32, /*dout=*/37, /*n=*/64, /*seed=*/202);
  QuantizedTable qt =
      tabular::quantize_table(fx.table.data(), fx.c, fx.k, fx.dout, QuantMode::kInt8);
  EXPECT_EQ(fx.c * fx.k * fx.dout, qt.q8.size());
  EXPECT_FALSE(qt.shuffle()) << "K=32 must not take the 16-entry vpshufb path";
  expect_within_budget(fx, qt);
}

TEST(QuantizeTable, Int8ShufflePathWithinErrorBudget) {
  TableFixture fx(/*c=*/2, /*k=*/16, /*dout=*/128, /*n=*/64, /*seed=*/303);
  QuantizedTable qt =
      tabular::quantize_table(fx.table.data(), fx.c, fx.k, fx.dout, QuantMode::kInt8);
  EXPECT_TRUE(qt.shuffle()) << "K=16, C=2 int8 must build the vpshufb LUT";
  EXPECT_EQ(fx.c * fx.dout * 16, qt.lut8.size());
  expect_within_budget(fx, qt);
}

TEST(QuantizeTable, ConstantColumnsQuantizeExactly) {
  TableFixture fx(/*c=*/3, /*k=*/8, /*dout=*/5, /*n=*/16, /*seed=*/404);
  QuantizedTable qt =
      tabular::quantize_table(fx.table.data(), fx.c, fx.k, fx.dout, QuantMode::kInt8);
  EXPECT_EQ(0.0f, qt.scales[0]);  // the fixture pins column 0 constant
  EXPECT_EQ(0.0f, qt.error_bound(0));
  std::vector<float> out(fx.n * fx.dout);
  tabular::aggregate_quantized(qt, fx.codes.data(), fx.n, out.data(), fx.dout);
  for (std::size_t i = 0; i < fx.n; ++i) {
    EXPECT_EQ(3.0f * 0.75f, out[i * fx.dout]);
  }
}

TEST(QuantizeTable, RejectsOffModeAndZeroDims) {
  TableFixture fx(2, 8, 4, 1, 1);
  EXPECT_THROW(tabular::quantize_table(fx.table.data(), 2, 8, 4, QuantMode::kOff),
               std::invalid_argument);
  EXPECT_THROW(tabular::quantize_table(fx.table.data(), 0, 8, 4, QuantMode::kInt8),
               std::invalid_argument);
}

// ------------------------------------------- SIMD vs reference bit-identity

TEST(Aggregate, SimdMatchesScalarReferenceInt16) {
  // DO = 37 exercises the 8-wide main loop plus a 5-column tail.
  TableFixture fx(4, 32, 37, 97, 11);
  expect_simd_matches_reference(
      fx, tabular::quantize_table(fx.table.data(), fx.c, fx.k, fx.dout, QuantMode::kInt16));
}

TEST(Aggregate, SimdMatchesScalarReferenceInt8Rows) {
  TableFixture fx(4, 32, 37, 97, 22);
  expect_simd_matches_reference(
      fx, tabular::quantize_table(fx.table.data(), fx.c, fx.k, fx.dout, QuantMode::kInt8));
}

TEST(Aggregate, SimdMatchesScalarReferenceInt8Shuffle) {
  // n = 97 exercises two full 32-row shuffle blocks plus a 33-row tail;
  // DO = 70 exercises the 64-column tile plus a 6-column tail.
  TableFixture fx(2, 16, 70, 97, 33);
  QuantizedTable qt =
      tabular::quantize_table(fx.table.data(), fx.c, fx.k, fx.dout, QuantMode::kInt8);
  ASSERT_TRUE(qt.shuffle());
  expect_simd_matches_reference(fx, qt);
}

// ------------------------------------------------------- kernel-level paths

/// A trained-from-random linear kernel (weights and activations are
/// irrelevant to the quantization contract; only shapes matter).
tabular::LinearKernel small_kernel(std::size_t k, std::size_t c) {
  const std::size_t di = 16, dout = 24;
  nn::Tensor weight = nn::Tensor::randn({dout, di}, 0.5f, 51);
  nn::Tensor bias = nn::Tensor::randn({dout}, 0.5f, 52);
  nn::Tensor rows = nn::Tensor::randn({64, di}, 1.0f, 53);
  tabular::KernelConfig config;
  config.num_prototypes = k;
  config.num_subspaces = c;
  config.kmeans_iters = 4;
  return tabular::LinearKernel(weight, bias, rows, config);
}

TEST(LinearKernelQuant, QueryStaysWithinColumnBudget) {
  for (QuantMode mode : {QuantMode::kInt16, QuantMode::kInt8}) {
    tabular::LinearKernel kernel = small_kernel(/*k=*/16, /*c=*/2);
    nn::Tensor rows = nn::Tensor::randn({32, kernel.in_dim()}, 1.0f, 54);
    nn::Tensor exact = kernel.query(rows);
    kernel.quantize(mode);
    EXPECT_EQ(mode, kernel.quant_mode());
    nn::Tensor quantized = kernel.query(rows);
    const QuantizedTable& qt = kernel.quantized();
    for (std::size_t r = 0; r < rows.dim(0); ++r) {
      for (std::size_t o = 0; o < kernel.out_dim(); ++o) {
        EXPECT_NEAR(quantized.row(r)[o], exact.row(r)[o],
                    qt.error_bound(o) * (1.0 + 1e-5) + 1e-5)
            << tabular::quant_mode_name(mode) << " row " << r << " col " << o;
      }
    }
    // kOff restores the exact float path bit-for-bit.
    kernel.quantize(QuantMode::kOff);
    nn::Tensor restored = kernel.query(rows);
    EXPECT_EQ(0, std::memcmp(restored.data(), exact.data(), exact.numel() * sizeof(float)));
  }
}

TEST(LinearKernelQuant, AttachRejectsMismatchedPayload) {
  tabular::LinearKernel kernel = small_kernel(16, 2);
  tabular::LinearKernel other = small_kernel(8, 2);
  other.quantize(QuantMode::kInt8);
  EXPECT_THROW(kernel.attach_quantized(other.quantized()), std::invalid_argument);
  QuantizedTable truncated =
      tabular::quantize_table(kernel.table().data(), 2, 16, kernel.out_dim(), QuantMode::kInt8);
  truncated.q8.pop_back();
  EXPECT_THROW(kernel.attach_quantized(std::move(truncated)), std::invalid_argument);
}

// ----------------------------------------------------- predictor-level path

nn::ModelConfig tiny_arch() {
  nn::ModelConfig a;
  a.seq_len = 4;
  a.addr_dim = 4;
  a.pc_dim = 4;
  a.dim = 8;
  a.ffn_dim = 16;
  a.out_dim = 12;
  a.heads = 2;
  a.layers = 1;
  return a;
}

tabular::TabularPredictor tiny_predictor() {
  nn::AddressPredictor model(tiny_arch(), 7);
  nn::Tensor addr = nn::Tensor::randn({48, 4, 4}, 0.6f, 11);
  nn::Tensor pc = nn::Tensor::randn({48, 4, 4}, 0.6f, 12);
  tabular::TabularizeOptions options;
  options.tables = tabular::TableConfig::uniform(8, 2);
  options.fine_tune = false;
  options.kmeans_iters = 4;
  options.max_train_samples = 48;
  return tabular::tabularize(model, addr, pc, options);
}

/// End-to-end tolerance for quantized-vs-exact probabilities. The linear
/// bound does not compose through LayerNorm / attention re-encoding, so the
/// tolerance is empirical: measured max |Δprob| on this fixture, with a 4x
/// safety margin (see DESIGN.md §10).
TEST(PredictorQuant, EndToEndProbabilitiesStayClose) {
  nn::Tensor addr = nn::Tensor::randn({16, 4, 4}, 0.8f, 21);
  nn::Tensor pc = nn::Tensor::randn({16, 4, 4}, 0.8f, 22);
  tabular::TabularPredictor predictor = tiny_predictor();
  nn::Tensor exact = predictor.forward(addr, pc);
  const struct {
    QuantMode mode;
    float tolerance;
  } cases[] = {{QuantMode::kInt16, 0.02f}, {QuantMode::kInt8, 0.20f}};
  for (const auto& c : cases) {
    predictor.set_quant_mode(c.mode);
    EXPECT_EQ(c.mode, predictor.quant_mode());
    EXPECT_GT(predictor.quantized_bytes(), 0u);
    nn::Tensor probs = predictor.forward(addr, pc);
    float max_diff = 0.0f;
    for (std::size_t i = 0; i < probs.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(probs[i]));
      ASSERT_GE(probs[i], 0.0f);
      ASSERT_LE(probs[i], 1.0f);
      max_diff = std::max(max_diff, std::abs(probs[i] - exact[i]));
    }
    EXPECT_LT(max_diff, c.tolerance) << tabular::quant_mode_name(c.mode);
  }
  // And back: kOff restores bit-exact float serving.
  predictor.set_quant_mode(QuantMode::kOff);
  EXPECT_EQ(0u, predictor.quantized_bytes());
  nn::Tensor restored = predictor.forward(addr, pc);
  EXPECT_EQ(0, std::memcmp(restored.data(), exact.data(), exact.numel() * sizeof(float)));
}

// ------------------------------------------------------ QNTT chunk round trip

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(QuantArtifact, PredictorRoundTripsBitExact) {
  for (QuantMode mode : {QuantMode::kInt16, QuantMode::kInt8}) {
    const std::string path = temp_path("dart_quant_roundtrip.dart");
    tabular::TabularPredictor original = tiny_predictor();
    original.set_quant_mode(mode);
    original.save(path);
    tabular::TabularPredictor loaded = tabular::TabularPredictor::load(path);
    EXPECT_EQ(mode, loaded.quant_mode());

    // The stored payload must attach verbatim: same integers, same affine.
    const QuantizedTable& a = original.head_kernel->quantized();
    const QuantizedTable& b = loaded.head_kernel->quantized();
    EXPECT_EQ(a.q16, b.q16);
    EXPECT_EQ(a.q8, b.q8);
    EXPECT_EQ(a.lut8, b.lut8);  // deterministic relayout, rebuilt on attach
    EXPECT_EQ(0, std::memcmp(a.scales.data(), b.scales.data(),
                             a.scales.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(a.offsets.data(), b.offsets.data(),
                             a.offsets.size() * sizeof(float)));

    // ... and serve bit-exactly vs the saving process.
    nn::Tensor addr = nn::Tensor::randn({8, 4, 4}, 0.8f, 31);
    nn::Tensor pc = nn::Tensor::randn({8, 4, 4}, 0.8f, 32);
    nn::Tensor ya = original.forward(addr, pc);
    nn::Tensor yb = loaded.forward(addr, pc);
    EXPECT_EQ(0, std::memcmp(ya.data(), yb.data(), ya.numel() * sizeof(float)));

    const io::ArtifactInfo info = io::read_artifact_info(path);
    EXPECT_EQ(mode, info.quant);
    std::filesystem::remove(path);
  }
}

TEST(QuantArtifact, FloatArtifactsLoadWithQuantOff) {
  // Artifacts that predate (or never carry) the QNTT chunk serve the exact
  // float tables — the dequantized-exact fallback.
  const std::string path = temp_path("dart_quant_float.dart");
  tabular::TabularPredictor original = tiny_predictor();
  original.save(path);
  tabular::TabularPredictor loaded = tabular::TabularPredictor::load(path);
  EXPECT_EQ(QuantMode::kOff, loaded.quant_mode());
  EXPECT_EQ(0u, loaded.quantized_bytes());
  EXPECT_EQ(QuantMode::kOff, io::read_artifact_info(path).quant);
  std::filesystem::remove(path);
}

TEST(QuantArtifact, FusedTableRoundTripsBitExact) {
  const std::string path = temp_path("dart_quant_fused.dart");
  nn::Tensor rows = nn::Tensor::randn({64, 8}, 1.0f, 61);
  tabular::KernelConfig config;
  config.num_prototypes = 16;
  config.num_subspaces = 1;
  config.encoder = pq::EncoderKind::kExact;
  config.kmeans_iters = 4;
  config.seed = 47;
  tabular::LinearKernel original = tabular::LinearKernel::fused(
      8, 12, [](const nn::Tensor& x) { return nn::Tensor::randn({x.dim(0), 12}, 1.0f, 62); },
      rows, config);
  original.quantize(QuantMode::kInt8);
  io::save_fused_artifact(path, original);
  const tabular::LinearKernel loaded = io::load_fused_artifact(path);
  EXPECT_EQ(QuantMode::kInt8, loaded.quant_mode());
  EXPECT_EQ(original.quantized().q8, loaded.quantized().q8);
  nn::Tensor queries = nn::Tensor::randn({16, 8}, 1.0f, 63);
  nn::Tensor ya = original.query(queries);
  nn::Tensor yb = loaded.query(queries);
  EXPECT_EQ(0, std::memcmp(ya.data(), yb.data(), ya.numel() * sizeof(float)));
  std::filesystem::remove(path);
}

TEST(QuantArtifact, CorruptedQuantChunkIsRejected) {
  const std::string path = temp_path("dart_quant_corrupt.dart");
  tabular::TabularPredictor original = tiny_predictor();
  original.set_quant_mode(QuantMode::kInt8);
  original.save(path);
  std::vector<char> bytes = slurp(path);
  // Flip a byte just after the QNTT tag: the container checksum catches it.
  const char tag[] = {'Q', 'N', 'T', 'T'};
  auto it = std::search(bytes.begin(), bytes.end(), tag, tag + 4);
  ASSERT_NE(bytes.end(), it);
  *(it + 16) ^= 0x5a;
  spit(path, bytes);
  EXPECT_THROW(tabular::TabularPredictor::load(path), io::ArtifactError);
  std::filesystem::remove(path);
}

TEST(QuantArtifact, TruncatedQuantChunkIsRejected) {
  const std::string path = temp_path("dart_quant_truncated.dart");
  tabular::TabularPredictor original = tiny_predictor();
  original.set_quant_mode(QuantMode::kInt16);
  original.save(path);
  std::vector<char> bytes = slurp(path);
  bytes.resize(bytes.size() - 24);  // drop the checksum tail
  spit(path, bytes);
  EXPECT_THROW(tabular::TabularPredictor::load(path), io::ArtifactError);
  std::filesystem::remove(path);
}

// --------------------------------------------------- load-time requantization

TEST(QuantArtifact, LoadDartArtifactAppliesRequestedMode) {
  const std::string path = temp_path("dart_quant_loadmode.dart");
  tabular::TabularPredictor original = tiny_predictor();
  original.save(path);  // stored float

  // kOff serves as stored (float here) ...
  sim::DartModel as_stored = core::load_dart_artifact(path);
  EXPECT_EQ(QuantMode::kOff, as_stored.predictor->quant_mode());
  // ... an explicit mode requantizes before the predictor is shared.
  sim::DartModel int8 = core::load_dart_artifact(path, nullptr, QuantMode::kInt8);
  EXPECT_EQ(QuantMode::kInt8, int8.predictor->quant_mode());
  EXPECT_GT(int8.predictor->quantized_bytes(), 0u);

  // A stored-quantized artifact served with kOff keeps its QNTT tables.
  original.set_quant_mode(QuantMode::kInt16);
  original.save(path);
  sim::DartModel stored_quant = core::load_dart_artifact(path);
  EXPECT_EQ(QuantMode::kInt16, stored_quant.predictor->quant_mode());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dart
