// Minimal dense float32 tensor used throughout the training stack.
//
// Row-major contiguous storage, up to 4 dimensions. This is deliberately a
// value type (deep copy) — model activations are cached per layer during
// forward for use in backward, and value semantics keep ownership trivial
// (C++ Core Guidelines P.9 / R.1).
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace dart::nn {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor with the given shape.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape)
      : Tensor(std::vector<std::size_t>(shape)) {}

  /// Number of dimensions.
  std::size_t ndim() const { return shape_.size(); }
  /// Extent of dimension i.
  std::size_t dim(std::size_t i) const { return shape_.at(i); }
  const std::vector<std::size_t>& shape() const { return shape_; }
  /// Total number of elements.
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  float& at(std::size_t i, std::size_t j) {
    assert(ndim() == 2);
    return data_[i * shape_[1] + j];
  }
  float at(std::size_t i, std::size_t j) const {
    assert(ndim() == 2);
    return data_[i * shape_[1] + j];
  }
  float& at(std::size_t i, std::size_t j, std::size_t k) {
    assert(ndim() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float at(std::size_t i, std::size_t j, std::size_t k) const {
    assert(ndim() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

  /// Pointer to row i of a 2-D tensor (or to matrix i of a 3-D tensor).
  float* row(std::size_t i) { return data_.data() + i * row_stride(); }
  const float* row(std::size_t i) const { return data_.data() + i * row_stride(); }

  /// Returns a tensor with the same data and a new shape (numel must match).
  Tensor reshaped(std::vector<std::size_t> new_shape) const;

  /// In-place reshape (numel must match).
  void reshape(std::vector<std::size_t> new_shape);

  void fill(float v);
  void zero() { fill(0.0f); }

  /// Elementwise in-place operations.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float s);

  /// Sum of all elements.
  double sum() const;
  /// Mean of all elements.
  double mean() const;
  /// Max |x|.
  float abs_max() const;

  /// Human-readable "[a, b, c]" shape string for error messages.
  std::string shape_str() const;

  /// Gaussian init N(0, stddev) with the given seed.
  static Tensor randn(std::vector<std::size_t> shape, float stddev, std::uint64_t seed);
  /// Uniform init in [-bound, bound].
  static Tensor rand_uniform(std::vector<std::size_t> shape, float bound, std::uint64_t seed);

 private:
  /// Elements per row: the product of the trailing extents. No division,
  /// so a tensor with 0 rows has a stride too.
  std::size_t row_stride() const {
    std::size_t n = 1;
    for (std::size_t d = 1; d < shape_.size(); ++d) n *= shape_[d];
    return n;
  }

  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace dart::nn
