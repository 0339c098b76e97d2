// Endian-explicit binary primitives for the `.dart` artifact container
// (DESIGN.md §7).
//
// Every multi-byte value is encoded little-endian by explicit byte shifts,
// so artifacts are byte-identical across hosts regardless of the native
// endianness, and floats travel as their IEEE-754 bit patterns (the
// round-trip is bit-exact by construction). `ByteReader` bounds-checks every
// read — a truncated or corrupted payload raises `ArtifactError`, never
// undefined behavior — and validates count prefixes against the remaining
// payload before allocating, so a corrupted length field cannot trigger a
// multi-gigabyte allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace dart::io {

/// Error raised by every artifact parsing/validation failure: truncation,
/// corruption, checksum/magic/version mismatch, or inconsistent payloads.
/// Loading never exhibits undefined behavior on malformed input — it throws
/// this instead.
class ArtifactError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FNV-1a offset basis (the seed of an unchained hash).
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ULL;

/// 64-bit FNV-1a over `n` bytes, chainable via `seed`. Used both for the
/// container checksum/content hash and for configuration cache keys.
std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed = kFnv1aBasis);

/// Appends little-endian encoded scalars, strings, arrays, and tensors to a
/// growing byte buffer. The exact inverse of `ByteReader`.
class ByteWriter {
 public:
  /// Appends one byte.
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  /// Appends a 32-bit value, little-endian.
  void u32(std::uint32_t v);
  /// Appends a 64-bit value, little-endian.
  void u64(std::uint64_t v);
  /// Appends a float as its IEEE-754 bit pattern, little-endian.
  void f32(float v);
  /// Appends a double as its IEEE-754 bit pattern, little-endian. Used by
  /// the sweep result store for per-cell derived metrics.
  void f64(double v);
  /// Appends a u64 length prefix followed by the raw characters.
  void str(const std::string& s);
  /// Appends a u64 count prefix followed by `n` floats.
  void f32s(const float* data, std::size_t n);
  /// Appends a u64 count prefix followed by `n` uint32 values.
  void u32s(const std::uint32_t* data, std::size_t n);
  /// Appends a u64 count prefix followed by `n` int32 values (two's
  /// complement bit patterns).
  void i32s(const std::int32_t* data, std::size_t n);
  /// Appends a tensor: u32 ndim, u64 extents, then the float payload.
  void tensor(const nn::Tensor& t);

  /// The accumulated bytes.
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  /// Number of bytes written so far.
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over a borrowed byte range. Every
/// accessor throws `ArtifactError` instead of reading out of bounds.
class ByteReader {
 public:
  /// Wraps `[data, data + n)`; the range must outlive the reader.
  ByteReader(const std::uint8_t* data, std::size_t n) : data_(data), size_(n) {}

  /// Reads one byte.
  std::uint8_t u8();
  /// Reads a little-endian 32-bit value.
  std::uint32_t u32();
  /// Reads a little-endian 64-bit value.
  std::uint64_t u64();
  /// Reads an IEEE-754 float.
  float f32();
  /// Reads an IEEE-754 double.
  double f64();
  /// Reads a length-prefixed string.
  std::string str();
  /// Reads a count-prefixed float array.
  std::vector<float> f32s();
  /// Reads a count-prefixed uint32 array.
  std::vector<std::uint32_t> u32s();
  /// Reads a count-prefixed int32 array.
  std::vector<std::int32_t> i32s();
  /// Reads a tensor (u32 ndim, u64 extents, float payload); validates that
  /// the extent product matches the payload count.
  nn::Tensor tensor();

  /// Bytes not yet consumed.
  std::size_t remaining() const { return size_ - pos_; }
  /// True when the payload is fully consumed.
  bool done() const { return pos_ == size_; }

 private:
  /// Throws `ArtifactError` unless `n` more bytes are available.
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Atomically replaces `path` with `n` bytes of `data`: writes a sibling
/// temp file, fsyncs it, renames it over `path`, and fsyncs the parent
/// directory. A crash at any point leaves either the old file or the new
/// file — never a torn final file that a later run half-trusts. The
/// leftover temp of an interrupted write is ignored by every reader (it
/// never carries the final name) and is overwritten by the next save.
/// Throws ArtifactError on any I/O failure (the temp file is removed).
void write_file_atomic(const std::string& path, const void* data, std::size_t n);

}  // namespace dart::io
