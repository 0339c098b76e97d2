// K-means clustering (k-means++ seeding + Lloyd iterations) — the prototype
// learner of product quantization (the paper's Eq. 5).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace dart::pq {

struct KMeansResult {
  nn::Tensor centroids;              ///< [K, V]
  std::vector<std::uint32_t> assignment;  ///< per-row nearest centroid
  double inertia = 0.0;              ///< sum of squared distances
  std::size_t iterations = 0;        ///< Lloyd iterations actually run
};

struct KMeansOptions {
  std::size_t max_iters = 12;
  double tol = 1e-4;   ///< relative inertia improvement stop criterion
  std::uint64_t seed = 1;
};

/// Clusters the rows of `data` ([N, V]) into `k` centroids.
///
/// Deterministic for a fixed seed. When N < k the surplus centroids are
/// duplicated from sampled rows (keeps downstream table shapes fixed).
/// Throws std::invalid_argument when `data` is not 2-D or has no rows, or
/// when `k` is 0. The assignment step is parallelized over 16-row blocks;
/// the seeding and the update step are serial. AVX-512 builds compute 16
/// rows' distances in lanes with the scalar loop's rounding, so outputs
/// do not depend on the build (DESIGN.md §6).
KMeansResult kmeans(const nn::Tensor& data, std::size_t k, const KMeansOptions& opt = {});

/// Index of the centroid nearest to `row` (L2). `v` is the vector length.
std::uint32_t nearest_centroid(const float* row, const nn::Tensor& centroids);

}  // namespace dart::pq
