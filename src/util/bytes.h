// Byte-buffer utilities: the `Bytes` alias plus a small length-prefixed
// binary serialization layer (`ByteWriter` / `ByteReader`).
//
// All persistent artifacts of the system (group metadata, sealed blobs,
// certificates, ciphertexts) serialize through these two classes so that the
// storage footprint reported by the benchmarks is the exact number of bytes
// that would travel to the cloud store.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ibbe::util {

using Bytes = std::vector<std::uint8_t>;

/// Thrown by ByteReader when the input is truncated or malformed.
class DeserializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends fixed-width integers (big-endian) and length-prefixed blobs to a
/// growing buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix. Caller must know the width when reading.
  void raw(std::span<const std::uint8_t> data);
  /// u32 length prefix followed by the bytes.
  void blob(std::span<const std::uint8_t> data);
  /// u32 length prefix followed by UTF-8 bytes.
  void str(std::string_view s);

  /// Pre-sizes the buffer for `n` bytes in total.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Mirror of ByteWriter. Reads consume the buffer front-to-back; any
/// out-of-bounds read throws DeserializeError.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Reads exactly `n` raw bytes.
  Bytes raw(std::size_t n);
  /// Reads a u32 length prefix then that many bytes.
  Bytes blob();
  std::string str();
  /// Reads a u32 element count and validates it against the bytes remaining
  /// (each element must consume at least `min_element_bytes` > 0), so a
  /// hostile prefix fails with DeserializeError before any allocation
  /// instead of driving a reserve() into std::bad_alloc.
  std::size_t count(std::size_t min_element_bytes);

  [[nodiscard]] bool empty() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws unless the whole buffer has been consumed.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Constant-time equality for secrets (tags, keys). Returns false on length
/// mismatch without leaking where the difference is.
bool ct_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

}  // namespace ibbe::util
