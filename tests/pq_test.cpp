// Tests for the product-quantization substrate: k-means and the encoders.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "io/bytes.hpp"
#include "pq/encoder.hpp"
#include "pq/kmeans.hpp"

namespace dart::pq {
namespace {

/// Well-separated clusters: k groups at distance >> intra-cluster spread.
nn::Tensor clustered_data(std::size_t n, std::size_t v, std::size_t k, std::uint64_t seed) {
  nn::Tensor data = nn::Tensor::randn({n, v}, 0.05f, seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % k;
    for (std::size_t j = 0; j < v; ++j) {
      data.at(i, j) += static_cast<float>(c) * 2.0f + static_cast<float>(j % 2);
    }
  }
  return data;
}

TEST(KMeans, RecoversSeparatedClusters) {
  const std::size_t k = 4;
  nn::Tensor data = clustered_data(400, 3, k, 1);
  KMeansResult res = kmeans(data, k, {20, 1e-6, 7});
  // Every point must be close to its centroid (within the cluster spread).
  for (std::size_t i = 0; i < data.dim(0); ++i) {
    const float* row = data.row(i);
    const float* c = res.centroids.row(res.assignment[i]);
    float d = 0.0f;
    for (std::size_t j = 0; j < 3; ++j) d += (row[j] - c[j]) * (row[j] - c[j]);
    EXPECT_LT(std::sqrt(d), 0.8f);
  }
}

TEST(KMeans, DeterministicForSeed) {
  nn::Tensor data = clustered_data(100, 4, 3, 2);
  KMeansResult a = kmeans(data, 8, {10, 1e-4, 5});
  KMeansResult b = kmeans(data, 8, {10, 1e-4, 5});
  for (std::size_t i = 0; i < a.centroids.numel(); ++i) {
    EXPECT_EQ(a.centroids[i], b.centroids[i]);
  }
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  nn::Tensor data = nn::Tensor::randn({500, 4}, 1.0f, 3);
  const double i2 = kmeans(data, 2, {15, 1e-6, 9}).inertia;
  const double i16 = kmeans(data, 16, {15, 1e-6, 9}).inertia;
  EXPECT_LT(i16, i2);
}

TEST(KMeans, HandlesFewerRowsThanCentroids) {
  nn::Tensor data = nn::Tensor::randn({3, 2}, 1.0f, 4);
  KMeansResult res = kmeans(data, 8, {5, 1e-4, 1});
  EXPECT_EQ(res.centroids.dim(0), 8u);
  for (auto a : res.assignment) EXPECT_LT(a, 8u);
}

TEST(KMeans, RejectsBadInput) {
  nn::Tensor bad({2, 2, 2});
  EXPECT_THROW(kmeans(bad, 2), std::invalid_argument);
  nn::Tensor ok({4, 2});
  EXPECT_THROW(kmeans(ok, 0), std::invalid_argument);
  try {
    kmeans(nn::Tensor({0, 4}), 2);
    ADD_FAILURE() << "zero rows accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("0 rows"), std::string::npos) << e.what();
  }
}

/// [n, v] rows of integers scaled by 2^-16, so no float arithmetic that a
/// compiler could contract makes them. Every 7th row repeats the row before
/// it, and at n = 17 row 8 is NaN.
nn::Tensor integer_rows(std::size_t n, std::size_t v) {
  nn::Tensor t({n, v});
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = i % 7 == 6 ? i - 1 : i;
    for (std::size_t j = 0; j < v; ++j) {
      const auto q = static_cast<std::int64_t>(common::mix64(src * 131 + j) % 2000001) - 1000000;
      t.at(i, j) = static_cast<float>(q) * 0x1p-16f;
    }
  }
  if (n == 17) {
    for (std::size_t j = 0; j < v; ++j) t.at(8, j) = std::numeric_limits<float>::quiet_NaN();
  }
  return t;
}

// Raw k-means output, pinned by hash: centroids, assignment and inertia
// over V x K x N shapes that cover 16-row groups and their tails, K > N,
// duplicate rows and a NaN row. kmeans.cpp is built with -ffp-contract=off,
// so the AVX-512 lanes (Release) and the scalar loop (DART_NATIVE=OFF,
// sanitizer builds) give the same hash. Each final assignment is also
// checked row by row against nearest_centroid on the centroids it was made
// from, which are the outputs of one Lloyd pass fewer (tol = 0 never stops
// early). nearest_centroid is compiled in the library's own translation
// unit; a copy of its loop here could contract differently.
TEST(KMeans, OutputsArePinned) {
  const std::size_t iters = 3;
  std::uint64_t digest = io::kFnv1aBasis;
  for (std::size_t v : {1, 2, 3, 4, 7, 8, 12, 16, 64}) {
    for (std::size_t k : {1, 16, 128, 256}) {
      for (std::size_t n : {1, 15, 16, 17, 4099}) {
        SCOPED_TRACE("V=" + std::to_string(v) + " K=" + std::to_string(k) + " N=" + std::to_string(n));
        const nn::Tensor data = integer_rows(n, v);
        const std::uint64_t seed = 7 + v + k + n;
        const KMeansResult res = kmeans(data, k, {iters, 0.0, seed});
        const KMeansResult prev = kmeans(data, k, {iters - 1, 0.0, seed});
        ASSERT_EQ(res.iterations, iters);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(res.assignment[i], nearest_centroid(data.row(i), prev.centroids)) << "row " << i;
        }
        digest = io::fnv1a64(res.centroids.data(), res.centroids.numel() * sizeof(float), digest);
        digest = io::fnv1a64(res.assignment.data(), n * sizeof(std::uint32_t), digest);
        digest = io::fnv1a64(&res.inertia, sizeof(res.inertia), digest);
      }
    }
  }
  EXPECT_EQ(digest, 0x0d74a24d07e4446cULL);
}

TEST(ExactEncoder, PicksNearestPrototype) {
  nn::Tensor protos({3, 2});
  protos.at(0, 0) = 0.0f;
  protos.at(1, 0) = 5.0f;
  protos.at(2, 0) = 10.0f;
  ExactEncoder enc(protos);
  float q1[2] = {1.0f, 0.0f};
  float q2[2] = {7.9f, 0.0f};
  EXPECT_EQ(enc.encode(q1), 0u);
  EXPECT_EQ(enc.encode(q2), 2u);
}

class HashTreeSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashTreeSizes, LogDepthAndValidIndices) {
  const std::size_t k = GetParam();
  nn::Tensor data = clustered_data(std::max<std::size_t>(4 * k, 64), 4, k, 5);
  KMeansResult res = kmeans(data, k, {10, 1e-4, 3});
  HashTreeEncoder enc(res.centroids);
  std::size_t expect_depth = 0;
  while ((1ULL << expect_depth) < k) ++expect_depth;
  EXPECT_EQ(enc.comparisons_per_encode(), expect_depth);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_LT(enc.encode(data.row(i)), k);
  }
}

TEST_P(HashTreeSizes, AgreesWithExactOnClusteredData) {
  const std::size_t k = GetParam();
  nn::Tensor data = clustered_data(std::max<std::size_t>(8 * k, 128), 4, k, 6);
  KMeansResult res = kmeans(data, k, {15, 1e-5, 11});
  HashTreeEncoder tree(res.centroids);
  ExactEncoder exact(res.centroids);
  std::size_t agree = 0;
  const std::size_t probes = 128;
  for (std::size_t i = 0; i < probes; ++i) {
    if (tree.encode(data.row(i)) == exact.encode(data.row(i))) ++agree;
  }
  // The hash tree is an approximation, but on well-clustered data it should
  // agree with exact assignment for the large majority of points.
  EXPECT_GT(agree, probes * 6 / 10);
}

INSTANTIATE_TEST_SUITE_P(PrototypeCounts, HashTreeSizes, ::testing::Values(2, 4, 8, 16, 32));

// encode_batch (a vector block walk on AVX-512 builds) against the per-row
// scalar encode, bit for bit. K = 100 is non-uniform and V = 65 is wider
// than the vector walk takes, so both exercise the portable fallback.
class HashTreeBatch
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

/// `n` rows of width `v`, `stride` floats apart, mixing random values with
/// NaN, +-inf and values exactly on one of the tree's split thresholds.
std::vector<float> edge_rows(const HashTreeEncoder& enc, std::size_t n, std::size_t v,
                             std::size_t stride, std::uint64_t seed) {
  const nn::Tensor noise = nn::Tensor::randn({n * stride}, 1.5f, seed);
  std::vector<float> rows(noise.data(), noise.data() + n * stride);
  const auto& nodes = enc.nodes();
  const auto& leaves = enc.leaves();
  for (std::size_t i = 0; i < n; ++i) {
    float* row = rows.data() + i * stride;
    // Pin a handful of internal nodes' dims to their thresholds.
    for (std::size_t h = 0; h < 4; ++h) {
      const std::size_t idx = (i * 131 + h * 17) % nodes.size();
      if (leaves[idx] < 0) row[nodes[idx].split_dim] = nodes[idx].threshold;
    }
    const std::size_t j = i % v;
    if (i % 5 == 1) row[j] = std::numeric_limits<float>::quiet_NaN();
    if (i % 5 == 2) row[j] = std::numeric_limits<float>::infinity();
    if (i % 5 == 3) row[j] = -std::numeric_limits<float>::infinity();
  }
  return rows;
}

TEST_P(HashTreeBatch, MatchesPerRowEncode) {
  const auto [k, v] = GetParam();
  const HashTreeEncoder built(nn::Tensor::randn({k, v}, 1.0f, 7 + k + v));
  // The deserialization constructor must derive the same batch path.
  const HashTreeEncoder reloaded(built.nodes(), built.leaves(), k, v);
  const std::size_t stride = v + 3;  // rows of a wider matrix
  const std::size_t code_stride = 3;
  constexpr std::uint32_t kUntouched = 0xDEADBEEFu;
  for (const std::size_t n : {1, 7, 8, 9, 16, 17, 40, 256}) {
    const std::vector<float> rows = edge_rows(built, n, v, stride, 100 + n);
    for (const HashTreeEncoder* enc : {&built, &reloaded}) {
      for (const std::size_t cs : {std::size_t{1}, code_stride}) {
        std::vector<std::uint32_t> codes(n * cs, kUntouched);
        enc->encode_batch(rows.data(), stride, n, codes.data(), cs);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(codes[i * cs], built.encode(rows.data() + i * stride))
              << "K=" << k << " V=" << v << " n=" << n << " row " << i << " code_stride " << cs;
          for (std::size_t g = 1; g < cs; ++g) ASSERT_EQ(codes[i * cs + g], kUntouched);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HashTreeBatch,
    ::testing::Combine(::testing::Values(16, 64, 128, 256, 1024, 100),
                       ::testing::Values(1, 4, 8, 16, 17, 32, 64, 65)));

// encode_batch reading each row's floats `elem_stride` apart, as the
// attention kernel reads V's columns in place, against per-row `encode` of
// the row copied out contiguously. Row stride 1 (columns) takes the vector
// walk's loads and in-register transpose for V <= 16; row stride 2 and
// V = 64 take the portable walk. Both encoders, both code strides.
TEST_P(HashTreeBatch, ElementStrideMatchesCopiedRows) {
  const auto [k, v] = GetParam();
  const nn::Tensor protos = nn::Tensor::randn({k, v}, 1.0f, 7 + k + v);
  const HashTreeEncoder tree(protos);
  const ExactEncoder exact(protos);
  constexpr std::uint32_t kUntouched = 0xDEADBEEFu;
  for (const std::size_t n : {1, 8, 9, 16, 17, 256}) {
    const std::vector<float> rows = edge_rows(tree, n, v, v, 200 + n);
    for (const std::size_t row_stride : {std::size_t{1}, std::size_t{2}}) {
      const std::size_t elem_stride = row_stride * n + 3;
      // Exactly the floats the rows span, the gaps holding other values.
      const nn::Tensor noise =
          nn::Tensor::randn({(n - 1) * row_stride + (v - 1) * elem_stride + 1}, 2.0f, 300 + n);
      std::vector<float> strided(noise.data(), noise.data() + noise.numel());
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < v; ++j) {
          strided[i * row_stride + j * elem_stride] = rows[i * v + j];
        }
      }
      for (const Encoder* enc : {static_cast<const Encoder*>(&tree),
                                 static_cast<const Encoder*>(&exact)}) {
        for (const std::size_t cs : {std::size_t{1}, std::size_t{3}}) {
          std::vector<std::uint32_t> codes(n * cs, kUntouched);
          enc->encode_batch(strided.data(), row_stride, n, codes.data(), cs, elem_stride);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(codes[i * cs], enc->encode(rows.data() + i * v))
                << (enc == &tree ? "hash tree" : "exact") << " K=" << k << " V=" << v
                << " n=" << n << " row stride " << row_stride << " row " << i
                << " code_stride " << cs;
            for (std::size_t g = 1; g < cs; ++g) ASSERT_EQ(codes[i * cs + g], kUntouched);
          }
        }
      }
    }
  }
}

// V = 2 rows (a transpose of one zip round) for both tests above.
INSTANTIATE_TEST_SUITE_P(Pairs, HashTreeBatch,
                         ::testing::Combine(::testing::Values(16, 128, 100),
                                            ::testing::Values(2)));

}  // namespace
}  // namespace dart::pq
