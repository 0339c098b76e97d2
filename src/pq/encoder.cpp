#include "pq/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "pq/kmeans.hpp"

#if defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>
#define DART_HASH_TREE_SIMD 1
#else
#define DART_HASH_TREE_SIMD 0
#endif

namespace dart::pq {

#if DART_HASH_TREE_SIMD
namespace {

/// Lane r's entry `level[node_r]` of one tree level of `width` entries:
/// one vpermd up to 16 entries, one vpermt2d at 32, two and a blend at 64,
/// a gather beyond. (The masked forms with a full mask are the same
/// instructions; they spare GCC 12 a false -Wmaybe-uninitialized.)
inline __m512i level_fetch(const std::int32_t* level, std::size_t width, __m512i node) {
  if (width <= 16) {
    return _mm512_maskz_permutexvar_epi32(0xFFFF, node, _mm512_loadu_si512(level));
  }
  if (width == 32) {
    return _mm512_permutex2var_epi32(_mm512_loadu_si512(level), node,
                                     _mm512_loadu_si512(level + 16));
  }
  if (width == 64) {
    const __m512i lo = _mm512_permutex2var_epi32(_mm512_loadu_si512(level), node,
                                                 _mm512_loadu_si512(level + 16));
    const __m512i hi = _mm512_permutex2var_epi32(_mm512_loadu_si512(level + 32), node,
                                                 _mm512_loadu_si512(level + 48));
    return _mm512_mask_blend_epi32(_mm512_test_epi32_mask(node, _mm512_set1_epi32(32)), lo, hi);
  }
  return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), 0xFFFF, node, level, 4);
}

/// Lane r's float at flat index r*R + (idx_r mod R) of the registers that
/// hold consecutive rows of R floats each, `kRegs` of them. `idx` already
/// carries the row's offset within its register pair, (r*R) mod 32; lane
/// r's pair is fixed, so the pairs' results merge under constant masks.
template <int R, int kRegs>
inline __m512 pick(const __m512* reg, __m512i idx) {
  if constexpr (kRegs == 1) {
    // The zero-masking form with a full mask is the same vpermps; it spares
    // GCC 12 a false -Wmaybe-uninitialized in the unmasked intrinsic.
    return _mm512_maskz_permutexvar_ps(0xFFFF, idx, reg[0]);
  } else {
    constexpr int kLanes = 32 / R;  // rows per register pair
    __m512 x = _mm512_permutex2var_ps(reg[0], idx, reg[1]);
#pragma GCC unroll 8
    for (int j = 1; j < kRegs / 2; ++j) {
      const auto lanes = static_cast<__mmask16>(((1u << kLanes) - 1u) << (j * kLanes));
      x = _mm512_mask_mov_ps(x, lanes, _mm512_permutex2var_ps(reg[2 * j], idx, reg[2 * j + 1]));
    }
    return x;
  }
}

/// Turns R registers of 16 lanes, register j holding element j of rows
/// 0..15 (the lanes), into the walk's row layout: row r's R floats at flat
/// float r*R. Each round zips register k with register k + R/2, which
/// rotates the flat index [j | r] left by one bit; log2(R) rounds rotate
/// it to [r | j].
template <int R>
inline void rows_from_columns(__m512 (&reg)[R]) {
  const __m512i lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
  const __m512i hi =
      _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
#pragma GCC unroll 4
  for (int round = 1; round < R; round *= 2) {
    __m512 zipped[R];
#pragma GCC unroll 8
    for (int k = 0; k < R / 2; ++k) {
      zipped[2 * k] = _mm512_permutex2var_ps(reg[k], lo, reg[k + R / 2]);
      zipped[2 * k + 1] = _mm512_permutex2var_ps(reg[k], hi, reg[k + R / 2]);
    }
#pragma GCC unroll 16
    for (int k = 0; k < R; ++k) reg[k] = zipped[k];
  }
}

/// A uniform tree's per-level tables, as HashTreeEncoder derives them.
struct LevelTables {
  const std::int32_t* dims;
  const std::int32_t* thresholds;
  std::size_t depth;
};

/// Walks the `c` <= kRows rows at `group` down the tree, lane r holding row
/// r's node, one level per step, and returns the leaf positions. R > 0
/// keeps rows of V <= R floats (R a power of two) in registers, row r at
/// float r*R; `base` is then (r*R) mod 32. With `elem_stride` 1 the rows
/// load one by one; otherwise the rows are columns (row stride 1) and
/// their element j loads as one vector for all rows, then the registers
/// are transposed. R = 0 gathers each level's floats from memory, for
/// wider rows of unit element stride; `base` is then r * row_stride.
/// Spare lanes walk zeros.
template <int R, int kRows>
inline __m512i walk_group(const LevelTables& t, __m512i base, __mmask16 row_mask,
                          const float* group, std::size_t row_stride, std::size_t elem_stride,
                          std::size_t c) {
  constexpr int kRegs = R > 0 && R * kRows > 16 ? R * kRows / 16 : 1;
  const auto live = static_cast<__mmask16>((1u << c) - 1u);
  __m512 reg[R > 0 ? R : 1];
  if constexpr (R > 0) {
    for (int w = 0; w < R; ++w) reg[w] = _mm512_setzero_ps();
    if (elem_stride != 1) {
      // `row_mask` has one bit per element here; masked-off lanes read
      // nothing past the last row.
#pragma GCC unroll 16
      for (int j = 0; j < R; ++j) {
        if ((row_mask >> j & 1u) != 0) {
          reg[j] = _mm512_maskz_loadu_ps(live, group + j * elem_stride);
        }
      }
      rows_from_columns<R>(reg);
    } else {
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kRows; ++r) {
        if (r >= c) break;
        // The expand load reads the row's V floats and forms no pointer
        // before the row; a row with a register of its own loads plainly.
        const std::size_t w = r * R / 16;
        if constexpr (R == 16) {
          reg[w] = _mm512_maskz_loadu_ps(row_mask, group + r * row_stride);
        } else {
          reg[w] = _mm512_mask_expandloadu_ps(
              reg[w], static_cast<__mmask16>(row_mask << (r * R % 16)), group + r * row_stride);
        }
      }
    }
  }
  __m512i node = _mm512_setzero_si512();
  for (std::size_t l = 0, width = 1; l < t.depth; ++l, width *= 2) {
    const __m512i idx = _mm512_add_epi32(level_fetch(t.dims + width - 1, width, node), base);
    const __m512 thr = _mm512_castsi512_ps(level_fetch(t.thresholds + width - 1, width, node));
    __m512 x;
    if constexpr (R > 0) {
      x = pick<R, kRegs>(reg, idx);
    } else if constexpr (kRows == 8) {
      // Eight lanes gather at half the cost of sixteen. The zero-masking
      // forms spare GCC 12 a false -Wmaybe-uninitialized.
      const __m256 x8 =
          _mm256_mmask_i32gather_ps(_mm256_setzero_ps(), static_cast<__mmask8>(live),
                                    _mm512_maskz_extracti64x4_epi64(0xF, idx, 0), group, 4);
      x = _mm512_castpd_ps(
          _mm512_maskz_insertf64x4(0xFF, _mm512_setzero_pd(), _mm256_castps_pd(x8), 0));
    } else {
      x = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), live, idx, group, 4);
    }
    // The same `x > threshold` as the scalar walk; false for NaN.
    const __mmask16 right = _mm512_cmp_ps_mask(x, thr, _CMP_GT_OQ);
    node = _mm512_add_epi32(node, node);
    node = _mm512_mask_add_epi32(node, right, node, _mm512_set1_epi32(1));
  }
  return node;
}

/// The rows-in-lanes walk (DESIGN.md §6) over groups of 16 rows; a group of
/// at most 8 rows keeps only their registers. Stores real codes only.
template <int R>
void walk_lanes(const LevelTables& t, const std::int32_t* leaves, std::size_t v,
                const float* rows, std::size_t row_stride, std::size_t elem_stride,
                std::size_t n, std::uint32_t* codes_out, std::size_t code_stride) {
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  // The caller keeps 15 * row_stride + v inside int32.
  const __m512i base =
      R > 0 ? _mm512_and_si512(_mm512_mullo_epi32(lane, _mm512_set1_epi32(R)),
                               _mm512_set1_epi32(31))
            : _mm512_mullo_epi32(lane, _mm512_set1_epi32(static_cast<std::int32_t>(row_stride)));
  const auto row_mask = static_cast<__mmask16>(R > 0 ? (1u << v) - 1u : 0u);
  for (std::size_t i0 = 0; i0 < n; i0 += 16) {
    const std::size_t c = std::min<std::size_t>(16, n - i0);
    const float* group = rows + i0 * row_stride;
    const __m512i node =
        c > 8 ? walk_group<R, 16>(t, base, row_mask, group, row_stride, elem_stride, c)
              : walk_group<R, 8>(t, base, row_mask, group, row_stride, elem_stride, c);
    const auto live = static_cast<__mmask16>((1u << c) - 1u);
    const __m512i code =
        _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), live, node, leaves, 4);
    if (code_stride == 1) {
      _mm512_mask_storeu_epi32(codes_out + i0, live, code);
    } else {
      alignas(64) std::uint32_t at[16];
      _mm512_store_si512(at, code);
      for (std::size_t r = 0; r < c; ++r) codes_out[(i0 + r) * code_stride] = at[r];
    }
  }
}

}  // namespace
#endif

ExactEncoder::ExactEncoder(nn::Tensor prototypes) : prototypes_(std::move(prototypes)) {
  if (prototypes_.ndim() != 2) throw std::invalid_argument("ExactEncoder: prototypes must be 2-D");
  const std::size_t k = prototypes_.dim(0), v = prototypes_.dim(1);
  half_norms_.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    const float* p = prototypes_.row(c);
    float acc = 0.0f;
    for (std::size_t j = 0; j < v; ++j) acc += p[j] * p[j];
    half_norms_[c] = 0.5f * acc;
  }
}

std::uint32_t ExactEncoder::nearest(const float* row, std::size_t elem_stride) const {
  const std::size_t k = prototypes_.dim(0), v = prototypes_.dim(1);
  const float* protos = prototypes_.data();
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (std::size_t c = 0; c < k; ++c) {
    const float* p = protos + c * v;
    float dot = 0.0f;
    for (std::size_t j = 0; j < v; ++j) dot += row[j * elem_stride] * p[j];
    const float d = half_norms_[c] - dot;
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

std::uint32_t ExactEncoder::encode(const float* row) const { return nearest(row, 1); }

void ExactEncoder::encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                                std::uint32_t* codes_out, std::size_t code_stride,
                                std::size_t elem_stride) const {
  for (std::size_t i = 0; i < n; ++i) {
    codes_out[i * code_stride] = nearest(rows + i * row_stride, elem_stride);
  }
}

HashTreeEncoder::HashTreeEncoder(const nn::Tensor& prototypes) {
  if (prototypes.ndim() != 2) throw std::invalid_argument("HashTreeEncoder: prototypes must be 2-D");
  k_ = prototypes.dim(0);
  v_ = prototypes.dim(1);
  depth_ = 0;
  while ((1ULL << depth_) < k_) ++depth_;
  // Full heap with 2^depth leaves.
  const std::size_t node_count = (1ULL << (depth_ + 1)) - 1;
  hot_.assign(node_count, HotNode{});
  protos_.assign(node_count, -1);
  std::vector<std::uint32_t> all(k_);
  std::iota(all.begin(), all.end(), 0);
  build(std::move(all), prototypes, 0);
  index_tree();
}

HashTreeEncoder::HashTreeEncoder(std::vector<HotNode> nodes, std::vector<std::int32_t> leaves,
                                 std::size_t k, std::size_t v)
    : hot_(std::move(nodes)), protos_(std::move(leaves)), k_(k), v_(v) {
  if (k_ == 0 || v_ == 0) throw std::invalid_argument("HashTreeEncoder: empty tree");
  while ((1ULL << depth_) < k_) ++depth_;
  const std::size_t node_count = (1ULL << (depth_ + 1)) - 1;
  if (hot_.size() != node_count || protos_.size() != node_count) {
    throw std::invalid_argument("HashTreeEncoder: node arrays do not match prototype count");
  }
  // Walk safety: every reachable node must either be a valid leaf or an
  // internal node with a valid split dimension and in-bounds children.
  // Iterative DFS over the (at most node_count) reachable slots.
  std::vector<std::size_t> stack = {0};
  while (!stack.empty()) {
    const std::size_t idx = stack.back();
    stack.pop_back();
    const std::int32_t leaf = protos_[idx];
    if (leaf >= 0) {
      if (static_cast<std::size_t>(leaf) >= k_) {
        throw std::invalid_argument("HashTreeEncoder: leaf prototype id out of range");
      }
      continue;
    }
    if (2 * idx + 2 >= node_count) {
      throw std::invalid_argument("HashTreeEncoder: walk escapes the node heap");
    }
    if (hot_[idx].split_dim >= v_) {
      throw std::invalid_argument("HashTreeEncoder: split dimension out of range");
    }
    stack.push_back(2 * idx + 1);
    stack.push_back(2 * idx + 2);
  }
  index_tree();
}

void HashTreeEncoder::index_tree() {
  // Uniform iff no leaf sits above the last level.
  uniform_ = true;
  const std::size_t internal = (1ULL << depth_) - 1;
  for (std::size_t i = 0; i < internal; ++i) {
    if (protos_[i] >= 0) {
      uniform_ = false;
      break;
    }
  }
#if DART_HASH_TREE_SIMD
  if (!uniform_) return;
  level_dims_.assign(internal + 16, 0);
  level_thresholds_.assign(internal + 16, 0);
  for (std::size_t i = 0; i < internal; ++i) {
    level_dims_[i] = static_cast<std::int32_t>(hot_[i].split_dim);
    std::memcpy(&level_thresholds_[i], &hot_[i].threshold, sizeof(float));
  }
#endif
}

void HashTreeEncoder::build(std::vector<std::uint32_t> protos, const nn::Tensor& prototypes,
                            std::size_t node_idx) {
  if (protos.size() == 1 || 2 * node_idx + 2 >= protos_.size()) {
    protos_[node_idx] = static_cast<std::int32_t>(protos.front());
    return;
  }
  // Pick the dimension with the largest variance among this node's protos.
  std::size_t best_dim = 0;
  double best_var = -1.0;
  for (std::size_t d = 0; d < v_; ++d) {
    double mean = 0.0;
    for (auto p : protos) mean += prototypes.at(p, d);
    mean /= static_cast<double>(protos.size());
    double var = 0.0;
    for (auto p : protos) {
      const double diff = prototypes.at(p, d) - mean;
      var += diff * diff;
    }
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }
  // Median split (by sorted order, so ties still split evenly).
  std::sort(protos.begin(), protos.end(), [&](std::uint32_t a, std::uint32_t b) {
    return prototypes.at(a, best_dim) < prototypes.at(b, best_dim);
  });
  const std::size_t mid = protos.size() / 2;
  hot_[node_idx].split_dim = static_cast<std::uint32_t>(best_dim);
  hot_[node_idx].threshold =
      0.5f * (prototypes.at(protos[mid - 1], best_dim) + prototypes.at(protos[mid], best_dim));
  protos_[node_idx] = -1;
  std::vector<std::uint32_t> left(protos.begin(), protos.begin() + mid);
  std::vector<std::uint32_t> right(protos.begin() + mid, protos.end());
  build(std::move(left), prototypes, 2 * node_idx + 1);
  build(std::move(right), prototypes, 2 * node_idx + 2);
}

std::uint32_t HashTreeEncoder::encode(const float* row) const {
  const HotNode* hot = hot_.data();
  if (uniform_) {
    // Branchless fixed-depth walk: the step direction is an integer add.
    std::size_t idx = 0;
    for (std::size_t l = 0; l < depth_; ++l) {
      const HotNode nd = hot[idx];
      idx = 2 * idx + 1 + static_cast<std::size_t>(row[nd.split_dim] > nd.threshold);
    }
    return static_cast<std::uint32_t>(protos_[idx]);
  }
  std::size_t idx = 0;
  while (protos_[idx] < 0) {
    const HotNode nd = hot[idx];
    idx = 2 * idx + 1 + static_cast<std::size_t>(row[nd.split_dim] > nd.threshold);
  }
  return static_cast<std::uint32_t>(protos_[idx]);
}

void HashTreeEncoder::encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                                   std::uint32_t* codes_out, std::size_t code_stride,
                                   std::size_t elem_stride) const {
#if DART_HASH_TREE_SIMD
  // The lane walk's gathers index a group of 16 rows with int32 offsets;
  // strided rows must be columns (row stride 1) of at most 16 floats.
  const bool lanes = elem_stride == 1 ? row_stride <= (0x7fffffffu - v_) / 15
                                      : row_stride == 1 && v_ <= 16;
  if (!level_dims_.empty() && lanes) {
    const LevelTables t{level_dims_.data(), level_thresholds_.data(), depth_};
    const std::int32_t* leaves = protos_.data() + ((std::size_t{1} << depth_) - 1);
    const auto walk = v_ <= 1    ? walk_lanes<1>
                      : v_ <= 2  ? walk_lanes<2>
                      : v_ <= 4  ? walk_lanes<4>
                      : v_ <= 8  ? walk_lanes<8>
                      : v_ <= 16 ? walk_lanes<16>
                                 : walk_lanes<0>;
    walk(t, leaves, v_, rows, row_stride, elem_stride, n, codes_out, code_stride);
    return;
  }
#endif
  // Portable walk: the scalar twin of walk_lanes, and the path for
  // non-uniform trees.
  const HotNode* hot = hot_.data();
  const std::int32_t* leaf = protos_.data();
  if (uniform_) {
    // Level-synchronous walk over chunks of rows: the ~depth_ dependent
    // loads of different rows interleave, hiding each other's latency.
    constexpr std::size_t kChunk = 16;
    std::size_t idx[kChunk];
    for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
      const std::size_t c = std::min(kChunk, n - i0);
      for (std::size_t j = 0; j < c; ++j) idx[j] = 0;
      for (std::size_t l = 0; l < depth_; ++l) {
        for (std::size_t j = 0; j < c; ++j) {
          const HotNode nd = hot[idx[j]];
          const float x = rows[(i0 + j) * row_stride + nd.split_dim * elem_stride];
          idx[j] = 2 * idx[j] + 1 + static_cast<std::size_t>(x > nd.threshold);
        }
      }
      for (std::size_t j = 0; j < c; ++j) {
        codes_out[(i0 + j) * code_stride] = static_cast<std::uint32_t>(leaf[idx[j]]);
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = rows + i * row_stride;
    std::size_t idx = 0;
    while (leaf[idx] < 0) {
      const HotNode nd = hot[idx];
      idx = 2 * idx + 1 +
            static_cast<std::size_t>(row[nd.split_dim * elem_stride] > nd.threshold);
    }
    codes_out[i * code_stride] = static_cast<std::uint32_t>(leaf[idx]);
  }
}

std::unique_ptr<Encoder> make_encoder(EncoderKind kind, const nn::Tensor& prototypes) {
  switch (kind) {
    case EncoderKind::kExact:
      return std::make_unique<ExactEncoder>(prototypes);
    case EncoderKind::kHashTree:
      return std::make_unique<HashTreeEncoder>(prototypes);
  }
  throw std::invalid_argument("make_encoder: unknown kind");
}

}  // namespace dart::pq
