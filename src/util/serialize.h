// Little-endian binary (de)serialization for the persistent cache tier.
// ByteWriter appends fixed-width scalars and length-prefixed vectors to a
// string; ByteReader parses them back with bounds checks that fail softly
// (ok() flips to false, reads return zeros) so truncated or corrupted cache
// files are rejected instead of crashing or over-allocating. The byte
// layout is explicit -- one byte at a time, least significant first -- so
// files written on any host parse on any other.
#ifndef REDS_UTIL_SERIALIZE_H_
#define REDS_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace reds::util {

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }

  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void VecF64(const std::vector<double>& v) {
    U64(v.size());
    for (double x : v) F64(x);
  }

  void VecI32(const std::vector<int>& v) {
    U64(v.size());
    for (int x : v) I32(x);
  }

  void VecU8(const std::vector<uint8_t>& v) {
    U64(v.size());
    for (uint8_t x : v) U8(x);
  }

  void VecI64(const std::vector<int64_t>& v) {
    U64(v.size());
    for (int64_t x : v) U64(static_cast<uint64_t>(x));
  }

  void Str(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : p_(data), size_(size) {}
  explicit ByteReader(const std::string& data)
      : ByteReader(data.data(), data.size()) {}

  uint8_t U8() {
    if (pos_ >= size_) {
      ok_ = false;
      return 0;
    }
    return static_cast<uint8_t>(p_[pos_++]);
  }

  uint32_t U32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(U8()) << (8 * i);
    return v;
  }

  uint64_t U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(U8()) << (8 * i);
    return v;
  }

  int32_t I32() { return static_cast<int32_t>(U32()); }

  double F64() {
    const uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Length-prefixed vectors reject declared sizes larger than the bytes
  // actually remaining, so a corrupted length cannot trigger a huge
  // allocation before the payload runs out.
  std::vector<double> VecF64() { return Vec<double>(8, [this] { return F64(); }); }
  std::vector<int> VecI32() { return Vec<int>(4, [this] { return I32(); }); }
  std::vector<uint8_t> VecU8() { return Vec<uint8_t>(1, [this] { return U8(); }); }
  std::vector<int64_t> VecI64() {
    return Vec<int64_t>(8, [this] { return static_cast<int64_t>(U64()); });
  }

  std::string Str() {
    const uint64_t n = U64();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    std::string s(p_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T, typename Fn>
  std::vector<T> Vec(size_t elem_bytes, const Fn& next) {
    const uint64_t n = U64();
    if (!ok_ || n > remaining() / elem_bytes) {
      ok_ = false;
      return {};
    }
    std::vector<T> v;
    v.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && ok_; ++i) v.push_back(next());
    return v;
  }

  const char* p_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a 64 over a byte range; the checksum the cache files carry.
inline uint64_t Fnv64(const char* data, size_t size,
                      uint64_t h = 1469598103934665603ULL) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= kPrime;
  }
  return h;
}

}  // namespace reds::util

#endif  // REDS_UTIL_SERIALIZE_H_
