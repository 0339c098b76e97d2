// Unit tests for the Tensor container and the threaded dense kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace dart::nn {
namespace {

TEST(Tensor, ZeroInitializedWithShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ndim(), 3u);
  EXPECT_EQ(t.numel(), 24u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, AccessorsAreRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t[1 * 3 + 2], 5.0f);
  Tensor u({2, 3, 4});
  u.at(1, 2, 3) = 7.0f;
  EXPECT_EQ(u[(1 * 3 + 2) * 4 + 3], 7.0f);
}

// row() steps by the product of the trailing extents; a tensor with 0 rows
// used to divide by its 0 leading extent (SIGFPE).
TEST(Tensor, RowStrideIsTheTrailingExtents) {
  Tensor empty({0, 4});
  EXPECT_EQ(empty.row(0), empty.data());
  const Tensor& cempty = empty;
  EXPECT_EQ(cempty.row(0), cempty.data());
  Tensor m({3, 4});
  EXPECT_EQ(m.row(0), m.data());
  EXPECT_EQ(m.row(2), m.data() + 8);
  Tensor b({2, 3, 4});
  EXPECT_EQ(b.row(1), b.data() + 12);
  EXPECT_EQ(b.row(1), &b.at(1, 0, 0));
}

TEST(Tensor, ReshapeKeepsDataRejectsBadShape) {
  Tensor t({2, 6});
  t.at(0, 1) = 3.0f;
  Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.at(0, 1), 3.0f);
  EXPECT_THROW(t.reshape({5, 5}), std::invalid_argument);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a({4}), b({4});
  for (std::size_t i = 0; i < 4; ++i) {
    a[i] = static_cast<float>(i);
    b[i] = 1.0f;
  }
  a += b;
  EXPECT_EQ(a[3], 4.0f);
  a -= b;
  EXPECT_EQ(a[3], 3.0f);
  a *= 2.0f;
  EXPECT_EQ(a[3], 6.0f);
  EXPECT_DOUBLE_EQ(a.sum(), 0 + 2 + 4 + 6);
  EXPECT_FLOAT_EQ(a.abs_max(), 6.0f);
}

TEST(Tensor, SizeMismatchThrows) {
  Tensor a({4}), b({5});
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Tensor, RandnDeterministicPerSeed) {
  Tensor a = Tensor::randn({10}, 1.0f, 99);
  Tensor b = Tensor::randn({10}, 1.0f, 99);
  Tensor c = Tensor::randn({10}, 1.0f, 100);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(a[i], b[i]);
  bool any_diff = false;
  for (std::size_t i = 0; i < 10; ++i) any_diff |= a[i] != c[i];
  EXPECT_TRUE(any_diff);
}

// ---- matmul family, validated against a naive reference -------------------

void naive_matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  c = Tensor({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
      c.at(i, j) = acc;
    }
  }
}

class MatmulSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSizes, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Tensor a = Tensor::randn({static_cast<std::size_t>(m), static_cast<std::size_t>(k)}, 1.0f, 1);
  Tensor b = Tensor::randn({static_cast<std::size_t>(k), static_cast<std::size_t>(n)}, 1.0f, 2);
  Tensor c, ref;
  ops::matmul(a, b, c);
  naive_matmul(a, b, ref);
  for (std::size_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

TEST_P(MatmulSizes, TransposedVariantsConsistent) {
  const auto [m, k, n] = GetParam();
  Tensor a = Tensor::randn({static_cast<std::size_t>(m), static_cast<std::size_t>(k)}, 1.0f, 3);
  Tensor bt = Tensor::randn({static_cast<std::size_t>(n), static_cast<std::size_t>(k)}, 1.0f, 4);
  // matmul_nt(a, bt) == matmul(a, bt^T)
  Tensor b({static_cast<std::size_t>(k), static_cast<std::size_t>(n)});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) b.at(j, i) = bt.at(i, j);
  }
  Tensor c1, c2;
  ops::matmul_nt(a, bt, c1);
  ops::matmul(a, b, c2);
  for (std::size_t i = 0; i < c1.numel(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-3f);

  // matmul_tn(a, c2) == a^T c2.
  Tensor at({static_cast<std::size_t>(k), static_cast<std::size_t>(m)});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor d1, d2;
  ops::matmul_tn(a, c2, d1);
  ops::matmul(at, c2, d2);
  for (std::size_t i = 0; i < d1.numel(); ++i) EXPECT_NEAR(d1[i], d2[i], 1e-2f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                                           std::make_tuple(8, 8, 8), std::make_tuple(17, 31, 9),
                                           std::make_tuple(64, 32, 48),
                                           std::make_tuple(128, 16, 128)));

TEST(Ops, MatmulRejectsMismatchedDims) {
  Tensor a({2, 3}), b({4, 5}), c;
  EXPECT_THROW(ops::matmul(a, b, c), std::invalid_argument);
}

TEST(Ops, LinearForwardAddsBias) {
  Tensor x({2, 3}), w({4, 3}), b({4}), y;
  x.fill(0.0f);
  w.fill(1.0f);
  for (std::size_t i = 0; i < 4; ++i) b[i] = static_cast<float>(i);
  ops::linear_forward(x, w, b, y);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(y.at(i, j), static_cast<float>(j));
  }
}

TEST(Ops, SoftmaxRowsSumToOneAndOrderPreserved) {
  Tensor x = Tensor::randn({16, 10}, 3.0f, 5);
  Tensor orig = x;
  ops::softmax_rows(x);
  for (std::size_t i = 0; i < 16; ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < 10; ++j) {
      sum += x.at(i, j);
      EXPECT_GT(x.at(i, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    // argmax preserved
    std::size_t am_orig = 0, am_soft = 0;
    for (std::size_t j = 1; j < 10; ++j) {
      if (orig.at(i, j) > orig.at(i, am_orig)) am_orig = j;
      if (x.at(i, j) > x.at(i, am_soft)) am_soft = j;
    }
    EXPECT_EQ(am_orig, am_soft);
  }
}

TEST(Ops, SoftmaxHandlesExtremeValuesStably) {
  Tensor x({1, 3});
  x[0] = 1000.0f;
  x[1] = -1000.0f;
  x[2] = 999.0f;
  ops::softmax_rows(x);
  EXPECT_FALSE(std::isnan(x[0]));
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0f, 1e-5f);
}

TEST(Ops, SigmoidStableAtExtremes) {
  EXPECT_NEAR(ops::sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(ops::sigmoid(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(ops::sigmoid(-100.0f), 0.0f, 1e-6f);
  EXPECT_FALSE(std::isnan(ops::sigmoid(-1e30f)));
}

TEST(Ops, ReluAndBackward) {
  Tensor x({4}), y, dy({4}), dx;
  x[0] = -1.0f; x[1] = 2.0f; x[2] = 0.0f; x[3] = 3.0f;
  ops::relu(x, y);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  dy.fill(1.0f);
  ops::relu_backward(x, dy, dx);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);  // relu'(0) = 0 by convention
}

TEST(Ops, CosineSimilarityProperties) {
  Tensor a({3}), b({3});
  a[0] = 1; a[1] = 2; a[2] = 3;
  b = a;
  EXPECT_NEAR(ops::cosine_similarity(a, b), 1.0, 1e-6);
  for (std::size_t i = 0; i < 3; ++i) b[i] = -a[i];
  EXPECT_NEAR(ops::cosine_similarity(a, b), -1.0, 1e-6);
  Tensor z({3});
  EXPECT_EQ(ops::cosine_similarity(a, z), 0.0);
}

}  // namespace
}  // namespace dart::nn
