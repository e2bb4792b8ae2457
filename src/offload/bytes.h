// Bounds-checked little-endian byte cursors.
//
// Every wire codec in the tree (offload payload encodings, svc frame
// protocol) goes through these two cursors. ByteReader never reads past
// the buffer: every get_* reports failure instead, so a truncated or
// hostile buffer can only produce a clean parse error, never UB. Checked
// by the malformed-input tests in tests/test_offload.cc and
// tests/test_svc.cc.
//
// Scalars move with one memcpy each: the host byte order is the wire's.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace uniloc::offload {

static_assert(std::endian::native == std::endian::little,
              "the byte cursors copy scalars in host byte order");

class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void put_f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// u32 length prefix + raw bytes (snapshot codec name tags).
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void put_bytes(const std::uint8_t* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Overwrite `width` bytes at `pos` (little-endian) -- for length
  /// fields written after the payload they describe.
  void patch_u32(std::size_t pos, std::uint32_t v) {
    std::memcpy(buf_.data() + pos, &v, sizeof(v));
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  bool get_u8(std::uint8_t& v) { return get_le(v); }
  bool get_u16(std::uint16_t& v) { return get_le(v); }
  bool get_u32(std::uint32_t& v) { return get_le(v); }
  bool get_u64(std::uint64_t& v) { return get_le(v); }
  bool get_i32(std::int32_t& v) {
    std::uint32_t u;
    if (!get_le(u)) return false;
    v = static_cast<std::int32_t>(u);
    return true;
  }
  bool get_f64(double& v) {
    std::uint64_t u;
    if (!get_le(u)) return false;
    v = std::bit_cast<double>(u);
    return true;
  }
  /// Rejects any encoding other than 0/1 -- a corrupt flag byte must be a
  /// parse error, not a silently-true bool.
  bool get_bool(bool& v) {
    std::uint8_t u;
    if (!get_u8(u) || u > 1) return false;
    v = u != 0;
    return true;
  }
  /// Counterpart of put_string. `max_len` caps the declared length so a
  /// hostile prefix cannot force a giant allocation.
  bool get_string(std::string& v, std::size_t max_len) {
    std::uint32_t len;
    if (!get_u32(len) || len > max_len || len > remaining()) return false;
    v.assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  /// Counterpart of put_bytes: copies the next `n` bytes into `out`.
  bool get_bytes(std::uint8_t* out, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t pos() const { return pos_; }
  bool skip(std::size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

 private:
  template <typename T>
  bool get_le(T& v) {
    return get_bytes(reinterpret_cast<std::uint8_t*>(&v), sizeof(T));
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

}  // namespace uniloc::offload
