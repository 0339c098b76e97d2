#include "pq/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "pq/kmeans.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#define DART_HASH_TREE_SIMD 1
#else
#define DART_HASH_TREE_SIMD 0
#endif

namespace dart::pq {

#if DART_HASH_TREE_SIMD
namespace {

/// kPath3[m] = the 3-bit position (b0 b1 b2) a walk reaches after the top
/// three levels of a block whose first seven decisions are the bits of m.
struct Path3 {
  std::uint8_t at[128];
  constexpr Path3() : at() {
    for (unsigned m = 0; m < 128; ++m) {
      unsigned lane = 0, pos = 0;
      for (int l = 0; l < 3; ++l) {
        const unsigned bit = (m >> lane) & 1u;
        pos = 2 * pos + bit;
        lane = 2 * lane + 1 + bit;
      }
      at[m] = static_cast<std::uint8_t>(pos);
    }
  }
};
constexpr Path3 kPath3;

/// The row's V <= 16 * W floats (W = 1 or 4), gathered by the block's
/// split dims.
template <int W>
inline __m512 permute_row(const __m512 (&r)[W], __m512i dims) {
  if constexpr (W == 1) {
    // The zero-masking form with a full mask is the same vpermps; it spares
    // GCC 12 a false -Wmaybe-uninitialized in the unmasked intrinsic.
    return _mm512_maskz_permutexvar_ps(0xFFFF, dims, r[0]);
  } else {
    const __m512 lo = _mm512_permutex2var_ps(r[0], dims, r[1]);
    const __m512 hi = _mm512_permutex2var_ps(r[2], dims, r[3]);
    return _mm512_mask_blend_ps(_mm512_test_epi32_mask(dims, _mm512_set1_epi32(32)), lo, hi);
  }
}

}  // namespace
#endif

void Encoder::encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                           std::uint32_t* codes_out, std::size_t code_stride) const {
  for (std::size_t i = 0; i < n; ++i) {
    codes_out[i * code_stride] = encode(rows + i * row_stride);
  }
}

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

std::uint32_t ExactEncoder::encode(const float* row) const {
  const std::size_t k = prototypes_.dim(0), v = prototypes_.dim(1);
  const float* protos = prototypes_.data();
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (std::size_t c = 0; c < k; ++c) {
    const float* p = protos + c * v;
    float dot = 0.0f;
    for (std::size_t j = 0; j < v; ++j) dot += row[j] * p[j];
    const float d = half_norms_[c] - dot;
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
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
  if (!uniform_ || depth_ == 0 || v_ > 64) return;
  // Cut the levels into stages of 4; each node at a stage's top level roots
  // one block. Heap node (level l, position p) sits at 2^l - 1 + p, so the
  // block rooted at position `pos` of level `top` holds, at relative level
  // rl, the heap nodes 2^(top+rl) - 1 + (pos << rl) + q for q < 2^rl.
  for (std::size_t top = 0; top < depth_; top += 4) {
    const std::size_t levels = std::min<std::size_t>(4, depth_ - top);
    stages_.push_back({static_cast<std::uint32_t>(blocks_.size()),
                       static_cast<std::uint32_t>(levels)});
    for (std::size_t pos = 0; pos < (1ULL << top); ++pos) {
      Block b;
      for (std::size_t lane = 0; lane < 16; ++lane) {
        b.split_dim[lane] = 0;
        b.threshold[lane] = std::numeric_limits<float>::infinity();
      }
      for (std::size_t rl = 0; rl < levels; ++rl) {
        for (std::size_t q = 0; q < (1ULL << rl); ++q) {
          const HotNode& nd = hot_[(1ULL << (top + rl)) - 1 + (pos << rl) + q];
          const std::size_t lane = (1ULL << rl) - 1 + q;
          b.split_dim[lane] = static_cast<std::int32_t>(nd.split_dim);
          b.threshold[lane] = nd.threshold;
        }
      }
      blocks_.push_back(b);
    }
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

#if DART_HASH_TREE_SIMD
template <int W>
void HashTreeEncoder::walk_blocks(const float* rows, std::size_t row_stride, std::size_t n,
                                  std::uint32_t* codes_out, std::size_t code_stride) const {
  // Chunks of rows advance stage by stage so their dependency chains
  // (block load -> permute -> compare -> next block) overlap. A short last
  // chunk re-walks its final row in the spare slots.
  constexpr std::size_t kChunk = 8;
  __mmask16 load_mask[W];
  std::size_t load_at[W];  // a register past the row loads nothing, from the row start
  for (int w = 0; w < W; ++w) {
    const std::size_t lo = 16 * static_cast<std::size_t>(w);
    const std::size_t len = v_ > lo ? std::min<std::size_t>(16, v_ - lo) : 0;
    load_mask[w] = static_cast<__mmask16>((1u << len) - 1u);
    load_at[w] = len > 0 ? lo : 0;
  }
  const Block* blocks = blocks_.data();
  const std::int32_t* leaf = protos_.data() + ((1ULL << depth_) - 1);  // last level
  for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
    const std::size_t c = std::min(kChunk, n - i0);
    __m512 r[kChunk][W];
    std::uint32_t pos[kChunk];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kChunk; ++j) {
      const float* row = rows + (i0 + std::min(j, c - 1)) * row_stride;
      for (int w = 0; w < W; ++w) r[j][w] = _mm512_maskz_loadu_ps(load_mask[w], row + load_at[w]);
      pos[j] = 0;
    }
    for (const Stage& st : stages_) {
      const Block* stage_blocks = blocks + st.first;
      const unsigned drop = 4 - st.levels;
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kChunk; ++j) {
        const Block& b = stage_blocks[pos[j]];
        const __m512 x = permute_row<W>(r[j], _mm512_load_si512(b.split_dim));
        // The same `x > threshold` as the scalar walk; false for NaN.
        const unsigned m = _mm512_cmp_ps_mask(x, _mm512_load_ps(b.threshold), _CMP_GT_OQ);
        const unsigned t = kPath3.at[m & 0x7fu];
        const unsigned p = (t << 1) | ((m >> (7 + t)) & 1u);
        pos[j] = (pos[j] << st.levels) | (p >> drop);
      }
    }
    for (std::size_t j = 0; j < c; ++j) {
      codes_out[(i0 + j) * code_stride] = static_cast<std::uint32_t>(leaf[pos[j]]);
    }
  }
}
#endif

void HashTreeEncoder::encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                                   std::uint32_t* codes_out, std::size_t code_stride) const {
#if DART_HASH_TREE_SIMD
  if (!stages_.empty()) {
    if (v_ <= 16) {
      walk_blocks<1>(rows, row_stride, n, codes_out, code_stride);
    } else {
      walk_blocks<4>(rows, row_stride, n, codes_out, code_stride);
    }
    return;
  }
#endif
  // Portable walk: the scalar twin of walk_blocks, and the path for
  // non-uniform trees and rows wider than 64 floats.
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
          const float x = rows[(i0 + j) * row_stride + nd.split_dim];
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
      idx = 2 * idx + 1 + static_cast<std::size_t>(row[nd.split_dim] > nd.threshold);
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
