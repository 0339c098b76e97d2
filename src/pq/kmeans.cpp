#include "pq/kmeans.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

// Rounding is fixed by the source: CMakeLists.txt builds this file with
// -ffp-contract=off, so no build fuses a product into an FMA, and the
// scalar loops and the lane loops below round alike (DESIGN.md §6).

namespace dart::pq {

namespace {

constexpr float kFar = std::numeric_limits<float>::max();
constexpr std::size_t kLanes = 16;

/// Squared L2 distance: each product rounded, then added in j order.
float sq_dist(const float* a, const float* b, std::size_t v) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < v; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

struct Nearest {
  std::uint32_t c;
  float d;
};

/// The nearest of the k centroids `cent` ([k][v]) to `row` and its
/// distance: the first centroid on a tie; a NaN distance never wins.
Nearest nearest(const float* row, const float* cent, std::size_t k, std::size_t v) {
  Nearest best{0, kFar};
  for (std::size_t c = 0; c < k; ++c) {
    const float d = sq_dist(row, cent + c * v, v);
    if (d < best.d) best = {static_cast<std::uint32_t>(c), d};
  }
  return best;
}

/// The rows as the distance loops read them. AVX-512 builds keep one
/// dimension-major copy, [V][np] with np = N rounded up to 16 and zero
/// padding rows, so one load holds 16 rows' value of dimension j and lane r
/// of a 16-row group does row r's scalar arithmetic. Other builds walk the
/// rows of `data` itself.
class Rows {
 public:
  explicit Rows(const nn::Tensor& data)
      : rows_(data.data()), n_(data.dim(0)), v_(data.dim(1)), np_((n_ + kLanes - 1) / kLanes * kLanes) {
#if defined(__AVX512F__)
    lanes_.assign(v_ * np_, 0.0f);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < v_; ++j) lanes_[j * np_ + i] = rows_[i * v_ + j];
    }
#endif
  }

  /// N rounded up to a whole 16-row group.
  std::size_t padded() const { return np_; }

  /// min_d[i] = std::min(min_d[i], sq_dist(row i, c)) for every row i,
  /// then prefix[i] = min_d[0] + ... + min_d[i], summed in double in i
  /// order. Returns the total. `min_d` holds padded() entries, `prefix` N.
  double lower_min(const float* c, float* min_d, double* prefix) const {
    double total = 0.0;
#if defined(__AVX512F__)
    for (std::size_t r = 0; r < n_; r += kLanes) {
      // d replaces m only where d < m, as in std::min(m, d): a tie or a
      // NaN keeps m.
      const __m512 d = lane_sq_dist(r, c);
      const __m512 m = _mm512_loadu_ps(min_d + r);
      _mm512_storeu_ps(min_d + r, _mm512_mask_mov_ps(m, _mm512_cmp_ps_mask(d, m, _CMP_LT_OQ), d));
      for (std::size_t i = r; i < std::min(n_, r + kLanes); ++i) prefix[i] = total += min_d[i];
    }
#else
    for (std::size_t i = 0; i < n_; ++i) {
      min_d[i] = std::min(min_d[i], sq_dist(rows_ + i * v_, c, v_));
      prefix[i] = total += min_d[i];
    }
#endif
    return total;
  }

  /// Nearest centroid of rows [r0, r1) and its distance, the first
  /// centroid on a tie; a NaN distance never wins. `r0` is a multiple of
  /// 16; the outputs hold r1 − r0 entries.
  void assign(const nn::Tensor& centroids, std::size_t r0, std::size_t r1,
              std::uint32_t* best_out, float* dist_out) const {
    const std::size_t k = centroids.dim(0);
    const float* cent = centroids.data();
#if defined(__AVX512F__)
    for (std::size_t r = r0; r < r1; r += kLanes) {
      __m512 best_d = _mm512_set1_ps(kFar);
      __m512i best = _mm512_setzero_si512();
      for (std::size_t c = 0; c < k; ++c) {
        const __m512 d = lane_sq_dist(r, cent + c * v_);
        const __mmask16 lt = _mm512_cmp_ps_mask(d, best_d, _CMP_LT_OQ);
        best_d = _mm512_mask_mov_ps(best_d, lt, d);
        best = _mm512_mask_mov_epi32(best, lt, _mm512_set1_epi32(static_cast<int>(c)));
      }
      const std::size_t m = std::min(kLanes, r1 - r);
      const __mmask16 live = static_cast<__mmask16>((1u << m) - 1u);
      _mm512_mask_storeu_epi32(best_out + (r - r0), live, best);
      _mm512_mask_storeu_ps(dist_out + (r - r0), live, best_d);
    }
#else
    for (std::size_t i = r0; i < r1; ++i) {
      const Nearest best = nearest(rows_ + i * v_, cent, k, v_);
      best_out[i - r0] = best.c;
      dist_out[i - r0] = best.d;
    }
#endif
  }

 private:
#if defined(__AVX512F__)
  /// Lane l: sq_dist(row r + l, c), the same operations in the same order.
  __m512 lane_sq_dist(std::size_t r, const float* c) const {
    const float* x = lanes_.data() + r;
    __m512 acc = _mm512_setzero_ps();
    for (std::size_t j = 0; j < v_; ++j, x += np_) {
      const __m512 d = _mm512_sub_ps(_mm512_loadu_ps(x), _mm512_set1_ps(c[j]));
      acc = _mm512_add_ps(acc, _mm512_mul_ps(d, d));
    }
    return acc;
  }
  std::vector<float> lanes_;
#endif
  const float* rows_;  ///< [N][V], row-major
  std::size_t n_, v_, np_;
};

void copy_row(const nn::Tensor& data, std::size_t i, float* dst) {
  const std::size_t v = data.dim(1);
  std::copy(data.data() + i * v, data.data() + (i + 1) * v, dst);
}

}  // namespace

std::uint32_t nearest_centroid(const float* row, const nn::Tensor& centroids) {
  return nearest(row, centroids.data(), centroids.dim(0), centroids.dim(1)).c;
}

KMeansResult kmeans(const nn::Tensor& data, std::size_t k, const KMeansOptions& opt) {
  if (data.ndim() != 2) throw std::invalid_argument("kmeans: data must be 2-D");
  if (k == 0) throw std::invalid_argument("kmeans: k must be positive");
  const std::size_t n = data.dim(0), v = data.dim(1);
  if (n == 0) throw std::invalid_argument("kmeans: data has 0 rows; need at least 1");

  KMeansResult res;
  res.centroids = nn::Tensor({k, v});
  res.assignment.assign(n, 0);
  common::Rng rng(opt.seed);
  const Rows rows(data);
  auto centroid = [&](std::size_t c) { return res.centroids.data() + c * v; };

  // --- k-means++ seeding -------------------------------------------------
  // One serial pass per centroid lowers min_d and sums it into a prefix,
  // which gives both the total and the cumulative sums the sample is drawn
  // from. min_d is never negative or NaN, so the prefix never decreases,
  // and the first row whose prefix reaches the target is the row a linear
  // scan of running sums would stop at.
  std::vector<float> min_d(rows.padded(), kFar);
  std::vector<double> prefix(n);
  copy_row(data, static_cast<std::size_t>(rng.below(n)), centroid(0));
  for (std::size_t c = 1; c < k; ++c) {
    double total = 0.0;
    if (n >= k) total = rows.lower_min(centroid(c - 1), min_d.data(), prefix.data());
    if (total <= 0.0 || n < k) {
      // Degenerate data (or fewer rows than centroids): sample uniformly.
      copy_row(data, static_cast<std::size_t>(rng.below(n)), centroid(c));
      continue;
    }
    const double target = rng.uniform(0.0, total);
    const auto hit = std::partition_point(prefix.begin(), prefix.end(),
                                          [target](double s) { return !(s >= target); });
    const std::size_t chosen = hit == prefix.end() ? n - 1 : static_cast<std::size_t>(hit - prefix.begin());
    copy_row(data, chosen, centroid(c));
  }

  // --- Lloyd iterations ---------------------------------------------------
  double prev_inertia = std::numeric_limits<double>::max();
  std::vector<double> sums(k * v);
  std::vector<std::size_t> counts(k);
  std::vector<float> dist(n);
  const std::size_t groups = rows.padded() / kLanes;
  for (std::size_t iter = 0; iter < opt.max_iters; ++iter) {
    res.iterations = iter + 1;
    // Assignment: one fork per pass, over whole 16-row groups.
    common::parallel_for(
        groups,
        [&](std::size_t g0, std::size_t g1) {
          const std::size_t r0 = g0 * kLanes, r1 = std::min(n, g1 * kLanes);
          rows.assign(res.centroids, r0, r1, res.assignment.data() + r0, dist.data() + r0);
        },
        1024 / kLanes);
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) inertia += dist[i];
    res.inertia = inertia;

    // Update (serial accumulation; n*v work, cheap relative to assignment).
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = res.assignment[i];
      const float* row = data.data() + i * v;
      double* s = sums.data() + static_cast<std::size_t>(c) * v;
      for (std::size_t j = 0; j < v; ++j) s[j] += row[j];
      ++counts[c];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed empty clusters from a random row to keep K live prototypes.
        copy_row(data, static_cast<std::size_t>(rng.below(n)), centroid(c));
        continue;
      }
      float* dst = centroid(c);
      const double inv = 1.0 / static_cast<double>(counts[c]);
      const double* s = sums.data() + c * v;
      for (std::size_t j = 0; j < v; ++j) dst[j] = static_cast<float>(s[j] * inv);
    }

    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double rel =
          prev_inertia > 0.0 ? (prev_inertia - inertia) / prev_inertia : 0.0;
      if (rel >= 0.0 && rel < opt.tol) break;
    }
    prev_inertia = inertia;
  }
  return res;
}

}  // namespace dart::pq
