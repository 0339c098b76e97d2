#include "io/bytes.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace dart::io {

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// ------------------------------------------------------------------ writer

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f32(float v) {
  std::uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "float must be 32-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  u32(bits);
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ByteWriter::f32s(const float* data, std::size_t n) {
  u64(n);
  for (std::size_t i = 0; i < n; ++i) f32(data[i]);
}

void ByteWriter::u32s(const std::uint32_t* data, std::size_t n) {
  u64(n);
  for (std::size_t i = 0; i < n; ++i) u32(data[i]);
}

void ByteWriter::i32s(const std::int32_t* data, std::size_t n) {
  u64(n);
  for (std::size_t i = 0; i < n; ++i) u32(static_cast<std::uint32_t>(data[i]));
}

void ByteWriter::tensor(const nn::Tensor& t) {
  u32(static_cast<std::uint32_t>(t.ndim()));
  for (std::size_t i = 0; i < t.ndim(); ++i) u64(t.dim(i));
  f32s(t.data(), t.numel());
}

// ------------------------------------------------------------------ reader

void ByteReader::need(std::size_t n) const {
  if (n > size_ - pos_) {
    throw ArtifactError("truncated artifact payload: need " + std::to_string(n) +
                        " bytes at offset " + std::to_string(pos_) + ", have " +
                        std::to_string(size_ - pos_));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

float ByteReader::f32() {
  const std::uint32_t bits = u32();
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  need(n);  // rejects corrupted lengths before any allocation
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

// Count prefixes are validated against the remaining payload (divide, so a
// near-2^64 count cannot overflow the byte total) before any allocation.
std::vector<float> ByteReader::f32s() {
  const std::uint64_t n = u64();
  if (n > remaining() / 4) throw ArtifactError("artifact float array of " + std::to_string(n) +
                        " elements at byte offset " + std::to_string(pos_) +
                        " exceeds the remaining payload");
  std::vector<float> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = f32();
  return out;
}

std::vector<std::uint32_t> ByteReader::u32s() {
  const std::uint64_t n = u64();
  if (n > remaining() / 4) throw ArtifactError("artifact uint32 array of " + std::to_string(n) +
                        " elements at byte offset " + std::to_string(pos_) +
                        " exceeds the remaining payload");
  std::vector<std::uint32_t> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = u32();
  return out;
}

std::vector<std::int32_t> ByteReader::i32s() {
  const std::uint64_t n = u64();
  if (n > remaining() / 4) throw ArtifactError("artifact int32 array of " + std::to_string(n) +
                        " elements at byte offset " + std::to_string(pos_) +
                        " exceeds the remaining payload");
  std::vector<std::int32_t> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = static_cast<std::int32_t>(u32());
  return out;
}

nn::Tensor ByteReader::tensor() {
  const std::uint32_t ndim = u32();
  if (ndim == 0 || ndim > 4) {
    throw ArtifactError("artifact tensor at byte offset " + std::to_string(pos_) +
                        " has unsupported rank " + std::to_string(ndim));
  }
  std::vector<std::size_t> shape(ndim);
  std::uint64_t numel = 1;
  for (std::uint32_t i = 0; i < ndim; ++i) {
    const std::uint64_t d = u64();
    // A corrupted extent must not overflow the element count: each extent is
    // bounded by the payload that must still follow.
    if (d == 0 || d > remaining() || numel > remaining()) {
      throw ArtifactError("artifact tensor extent at byte offset " + std::to_string(pos_) +
                          " is inconsistent with payload size");
    }
    shape[i] = static_cast<std::size_t>(d);
    numel *= d;
  }
  std::vector<float> payload = f32s();
  if (payload.size() != numel) {
    throw ArtifactError("artifact tensor payload at byte offset " + std::to_string(pos_) +
                        " does not match its shape");
  }
  nn::Tensor t(shape);
  std::memcpy(t.data(), payload.data(), payload.size() * sizeof(float));
  return t;
}

// ------------------------------------------------------------ atomic write

void write_file_atomic(const std::string& path, const void* data, std::size_t n) {
  // The temp lives next to the target so the rename never crosses a
  // filesystem boundary (rename is only atomic within one filesystem).
  const std::string tmp = path + ".tmp";
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw ArtifactError("cannot open '" + tmp + "' for writing");
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, p + off, n - off);
    if (w < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      throw ArtifactError("failed writing '" + tmp + "'");
    }
    off += static_cast<std::size_t>(w);
  }
  // Durability before visibility: the payload must be on stable storage
  // before the rename can publish it under the final name.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw ArtifactError("failed syncing '" + tmp + "'");
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw ArtifactError("failed closing '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw ArtifactError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  // fsync the parent directory so the rename itself survives a crash.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best-effort: some filesystems reject directory fsync
    ::close(dfd);
  }
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw ArtifactError("cannot open '" + tmp + "' for writing");
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    out.flush();
    if (!out) throw ArtifactError("failed writing '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ArtifactError("cannot rename '" + tmp + "' to '" + path + "'");
  }
#endif
}

}  // namespace dart::io
