#pragma once
// Little-endian binary encode/decode primitives for on-disk artifacts
// (the .yolocplan deployment image). Fixed-width, endian-explicit
// encodings — never raw struct memcpy — so an artifact written on one
// host loads on any other. ByteReader is bounds-checked on every read:
// a truncated or corrupt payload fails with a YOLOC_CHECK error instead
// of reading past the buffer.

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace yoloc {

/// Append-only little-endian encoder over a growable byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xFFu);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xFFu);
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// u32 length prefix + raw bytes.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buf_;
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n, "string payload");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  void bytes(void* dst, std::size_t size) {
    need(size, "byte payload");
    // A 0-element tensor hands in a null `dst`; memcpy must not see it.
    if (size != 0) std::memcpy(dst, data_ + pos_, size);
    pos_ += size;
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] std::size_t offset() const { return pos_; }
  /// Decoders call this after parsing a section: trailing garbage means
  /// the payload does not match the format the header claimed.
  void expect_exhausted(const char* what) const {
    YOLOC_CHECK(pos_ == size_,
                std::string(what) + ": trailing bytes after payload");
  }

 private:
  void need(std::size_t n, const char* what) const {
    YOLOC_CHECK(n <= size_ - pos_,
                std::string("binio: truncated payload reading ") + what);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace yoloc
