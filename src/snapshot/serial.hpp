#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace sigvp::snapshot {

/// Raised on any malformed, truncated or checksum-mismatched snapshot input.
/// Derives from ContractError so existing catch sites treat a bad snapshot
/// like any other violated invariant; recovery paths catch it specifically
/// to fall back to an older checkpoint.
class SnapshotError : public ContractError {
 public:
  explicit SnapshotError(const std::string& what) : ContractError(what) {}
};

/// FNV-1a 64-bit over a byte range. Used both as the snapshot file checksum
/// and as the fleet-capture digest hash: the only property needed is
/// deterministic sensitivity to every byte, not cryptographic strength.
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t seed = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

class Writer;

/// A persisted record as its field list sees it: const when writing,
/// mutable when reading. Each record has one field list,
///
///   template <typename IO>
///   void fields(IO& io, Rec<IO, T>& t) { io(t.a, t.b, ...); }
///
/// declared in namespace snapshot, which Writer and Reader both run: the
/// fields travel in the listed order, and any check a loaded record must
/// pass follows the list.
template <typename IO, typename T>
using Rec = std::conditional_t<std::is_same_v<IO, Writer>, const T, T>;

/// Append-only little-endian byte buffer. Fixed-width integers and
/// bit-pattern doubles only, so the encoding of any value is unique and the
/// same fleet state always serializes to the same bytes — which is what lets
/// a digest over the buffer stand in for the state itself.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  /// Doubles round-trip by bit pattern (NaN payloads, -0.0, denormals
  /// included): restore-then-compare must be exact, not approximate.
  void f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }
  void u64_vec(const std::vector<std::uint64_t>& v) { put(v); }
  void f64_vec(const std::vector<double>& v) { put(v); }
  void byte_vec(const std::vector<std::uint8_t>& v) { put(v); }

  /// The field operator a record's `fields` list calls, directed by each
  /// value's type: bool/u32/u64/i64/f64/string as above; a vector or an
  /// array as a u64 count followed by its elements (a byte vector's
  /// elements as raw bytes); a shared_ptr as a presence flag followed by
  /// its record; anything else as a nested record, through its `fields`
  /// list.
  template <typename... Ts>
  void operator()(const Ts&... values) {
    (put(values), ...);
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::uint64_t digest() const { return fnv1a64(buf_.data(), buf_.size()); }

 private:
  void put(bool v) { boolean(v); }
  void put(std::uint32_t v) { u32(v); }
  void put(std::uint64_t v) { u64(v); }
  void put(std::int64_t v) { i64(v); }
  void put(double v) { f64(v); }
  void put(const std::string& s) { str(s); }
  void put(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    bytes(v.data(), v.size());
  }
  template <typename T>
  void put(const std::vector<T>& v) {
    u64(v.size());
    for (const T& x : v) put(x);
  }
  template <typename T, std::size_t N>
  void put(const std::array<T, N>& a) {
    u64(N);
    for (const T& x : a) put(x);
  }
  template <typename T>
  void put(const std::shared_ptr<T>& p) {
    boolean(p != nullptr);
    if (p) put(*p);
  }
  template <typename T>
  void put(const T& record) {
    fields(*this, record);
  }

  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked cursor over a serialized buffer; every under-read throws
/// SnapshotError instead of reading garbage, so a truncated payload that
/// somehow passed the file checksum still cannot produce a silently-wrong
/// restore.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf) : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }
  double f64() { return std::bit_cast<double>(read_le<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint64_t n = length(u64());
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  std::vector<std::uint64_t> u64_vec() { return read<std::vector<std::uint64_t>>(); }
  std::vector<double> f64_vec() { return read<std::vector<double>>(); }
  std::vector<std::uint8_t> byte_vec() { return read<std::vector<std::uint8_t>>(); }

  /// The field operator of Writer, reading: each value is overwritten by
  /// what its type's encoding holds. A vector's count is checked against
  /// the remaining payload before any element is read, an array's against
  /// its extent.
  template <typename... Ts>
  void operator()(Ts&... values) {
    (get(values), ...);
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (size_ - pos_ < n) {
      throw SnapshotError("snapshot payload truncated: need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos_) + " of " +
                          std::to_string(size_));
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  template <typename T>
  T read() {
    T v;
    get(v);
    return v;
  }
  void get(bool& v) { v = boolean(); }
  void get(std::uint32_t& v) { v = u32(); }
  void get(std::uint64_t& v) { v = u64(); }
  void get(std::int64_t& v) { v = i64(); }
  void get(double& v) { v = f64(); }
  void get(std::string& s) { s = str(); }
  void get(std::vector<std::uint8_t>& v) {
    const std::uint64_t n = length(u64());
    const std::uint8_t* p = take(n);
    v.assign(p, p + n);
  }
  template <typename T>
  void get(std::vector<T>& v) {
    const std::uint64_t n = length(u64());
    v.clear();
    // Only numbers are reserved up front; records are appended one by one,
    // so a corrupt count cannot allocate far ahead of the bytes present.
    if constexpr (std::is_arithmetic_v<T>) v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) get(v.emplace_back());
  }
  template <typename T, std::size_t N>
  void get(std::array<T, N>& a) {
    const std::uint64_t n = u64();
    if (n != N) {
      throw SnapshotError("snapshot array holds " + std::to_string(n) + " elements, expected " +
                          std::to_string(N));
    }
    for (T& x : a) get(x);
  }
  template <typename T>
  void get(std::shared_ptr<T>& p) {
    p = boolean() ? std::make_shared<T>() : nullptr;
    if (p) get(*p);
  }
  template <typename T>
  void get(T& record) {
    fields(*this, record);
  }

  /// Guards vector/string prefixes against absurd lengths from corrupt
  /// payloads before any allocation happens.
  std::uint64_t length(std::uint64_t n) {
    if (n > size_ - pos_) {
      throw SnapshotError("snapshot length prefix " + std::to_string(n) +
                          " exceeds remaining payload");
    }
    return n;
  }
  template <typename T>
  T read_le() {
    const std::uint8_t* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace sigvp::snapshot
