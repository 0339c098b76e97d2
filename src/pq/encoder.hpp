// Vector encoders: map a subvector to the index of its (approximately)
// nearest prototype (the paper's g function, Eq. 7).
//
// Two implementations:
//  * ExactEncoder — brute-force argmin over K prototypes (O(K·V)), evaluated
//    in the dot-product form argmin_k (||P_k||²/2 − x·P_k) with the prototype
//    half-norms precomputed at construction.
//  * HashTreeEncoder — balanced binary decision tree over the prototypes
//    with one scalar comparison per level (O(log K)), standing in for the
//    locality-sensitive hashing of MADDNESS [24] that the paper's latency
//    model assumes (Eq. 16: L_g = log K). Stored as structure-of-arrays and
//    walked iteratively; on AVX-512 hosts `encode_batch` walks 16 rows at a
//    time instead, one row per lane and one tree level per step, as MADDNESS
//    does (DESIGN.md §6).
//
// The batch entry point `encode_batch` is the inference hot path: one
// virtual call per (subspace, block of rows) instead of one per token.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace dart::pq {

/// Interface for per-subspace prototype encoders.
class Encoder {
 public:
  virtual ~Encoder() = default;

  /// Index in [0, K) of the chosen prototype for `row` (length V).
  virtual std::uint32_t encode(const float* row) const = 0;

  /// Encodes `n` rows starting at `rows`, consecutive rows `row_stride`
  /// floats apart and a row's V floats `elem_stride` apart (so a subspace
  /// of a wider matrix, or a column of one, can be encoded without a
  /// copy). Writes codes to `codes_out[0], codes_out[code_stride], ...`.
  /// Must produce exactly the same codes as per-row `encode` of each row
  /// copied out contiguously.
  virtual void encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                            std::uint32_t* codes_out, std::size_t code_stride = 1,
                            std::size_t elem_stride = 1) const = 0;

  virtual std::size_t num_prototypes() const = 0;
  virtual std::size_t vec_dim() const = 0;

  /// Scalar comparisons performed per encode (the latency model's cost).
  virtual std::size_t comparisons_per_encode() const = 0;
};

/// Brute-force nearest prototype.
class ExactEncoder final : public Encoder {
 public:
  explicit ExactEncoder(nn::Tensor prototypes);

  std::uint32_t encode(const float* row) const override;
  /// The per-row argmin in a loop: the O(K·V) argmin dwarfs the virtual
  /// call, so a vector batch loop buys nothing here.
  void encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                    std::uint32_t* codes_out, std::size_t code_stride = 1,
                    std::size_t elem_stride = 1) const override;
  std::size_t num_prototypes() const override { return prototypes_.dim(0); }
  std::size_t vec_dim() const override { return prototypes_.dim(1); }
  std::size_t comparisons_per_encode() const override {
    return num_prototypes() * vec_dim();
  }

  const nn::Tensor& prototypes() const { return prototypes_; }

 private:
  /// The argmin over a row whose floats lie `elem_stride` apart.
  std::uint32_t nearest(const float* row, std::size_t elem_stride) const;

  nn::Tensor prototypes_;
  // half_norms_[k] = ||P_k||²/2, so argmin_k ||x−P_k||² = argmin_k
  // (half_norms_[k] − x·P_k): the ||x||² term is row-constant and drops out.
  std::vector<float> half_norms_;
};

/// Balanced binary hash tree: each internal node compares one input
/// dimension against a threshold; leaves hold prototype indices.
///
/// Built by recursively splitting the prototype set at the median of its
/// highest-variance dimension, so lookups cost exactly ceil(log2 K)
/// comparisons. This trades a small accuracy loss for O(log K) encoding
/// (ablated in bench_ablation_encoders).
class HashTreeEncoder final : public Encoder {
 public:
  /// One internal decision node of the flattened heap: compare
  /// `row[split_dim]` against `threshold` to pick a child. Public because
  /// the `.dart` artifact serializes the trained tree verbatim
  /// (`src/io/artifact.cpp`), keeping reloads bit-exact.
  struct HotNode {
    std::uint32_t split_dim = 0;
    float threshold = 0.0f;
  };

  explicit HashTreeEncoder(const nn::Tensor& prototypes);

  /// Deserialization constructor: adopts a previously built tree (the
  /// `nodes()` / `leaves()` arrays) verbatim. `k`/`v` are the prototype
  /// count and input width. Validates the heap invariants — array sizes,
  /// `split_dim < v`, leaf ids in [0, k), and that every root-to-leaf walk
  /// terminates inside the arrays — and throws std::invalid_argument on any
  /// violation, so a corrupted artifact cannot produce an encoder whose
  /// walk reads out of bounds.
  HashTreeEncoder(std::vector<HotNode> nodes, std::vector<std::int32_t> leaves, std::size_t k,
                  std::size_t v);

  std::uint32_t encode(const float* row) const override;
  void encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                    std::uint32_t* codes_out, std::size_t code_stride = 1,
                    std::size_t elem_stride = 1) const override;
  std::size_t num_prototypes() const override { return k_; }
  std::size_t vec_dim() const override { return v_; }
  std::size_t comparisons_per_encode() const override { return depth_; }

  /// Raw decision nodes (serialization; parallel to `leaves()`).
  const std::vector<HotNode>& nodes() const { return hot_; }
  /// Raw leaf prototype ids, -1 on internal nodes (serialization).
  const std::vector<std::int32_t>& leaves() const { return protos_; }

 private:
  void build(std::vector<std::uint32_t> protos, const nn::Tensor& prototypes,
             std::size_t node_idx);
  /// Sets `uniform_` and derives the per-level tables of the vector walk
  /// from the heap (both constructors end here).
  void index_tree();

  // Flattened heap (children of i at 2i+1/2i+2) split hot/cold: the walk
  // touches only the 8-byte {split_dim, threshold} pairs; leaf prototype
  // ids live in a separate array read once at the end. protos_[i] >= 0
  // marks a leaf.
  std::vector<HotNode> hot_;
  std::vector<std::int32_t> protos_;
  std::size_t k_ = 0;
  std::size_t v_ = 0;
  std::size_t depth_ = 0;
  // True when every leaf sits at exactly depth_ (K a power of two): the
  // walk then needs no per-step leaf test and runs branchless.
  bool uniform_ = false;
  // Derived, never serialized: the internal nodes' split dims and threshold
  // bits in heap order, so level l's 2^l nodes start at 2^l - 1, then 16
  // padding entries that let a level narrower than 16 nodes load as one
  // vector (DESIGN.md §6). Empty unless the tree is uniform and the build
  // targets AVX-512 (F and VL); encode_batch then takes the heap walk.
  std::vector<std::int32_t> level_dims_;
  std::vector<std::int32_t> level_thresholds_;
};

/// Factory choice used across the tabular stack.
enum class EncoderKind { kExact, kHashTree };

std::unique_ptr<Encoder> make_encoder(EncoderKind kind, const nn::Tensor& prototypes);

}  // namespace dart::pq
