#pragma once
/// \file serial.hpp
/// \brief Little-endian byte serialisation used by the geometry file format,
/// checkpoints and the steering wire protocol.
///
/// The format is explicit (no struct memcpy of aggregates with padding), so
/// files and steering frames are portable across compilers.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace hemo::io {

/// Appends primitives to a growing byte buffer.
class Writer {
 public:
  const std::vector<std::byte>& bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

  template <typename T>
  void put(T v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    // Host is little-endian x86; the format is defined as little-endian.
    std::byte staged[sizeof(T)];
    std::memcpy(staged, &v, sizeof(T));
    // GCC 12 at -O3 mis-tracks object sizes through std::vector's range
    // insert and reports a bogus stringop-overflow; the range is exactly
    // sizeof(T) bytes of the array above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#pragma GCC diagnostic ignored "-Warray-bounds"
    buf_.insert(buf_.end(), staged, staged + sizeof(T));
#pragma GCC diagnostic pop
  }

  void putString(const std::string& s) {
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  template <typename T>
  void putVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    putRaw(v.data(), v.size() * sizeof(T));
  }

  void putRaw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

 private:
  std::vector<std::byte> buf_;
};

/// Reads primitives back; bounds-checked.
class Reader {
 public:
  explicit Reader(const std::vector<std::byte>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  Reader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }
  bool atEnd() const { return pos_ == size_; }

  template <typename T>
  T get() {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    HEMO_CHECK_MSG(remaining() >= sizeof(T), "serial underrun");
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string getString() {
    const auto n = get<std::uint32_t>();
    HEMO_CHECK_MSG(remaining() >= n, "serial underrun (string)");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> getVec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    // Division form: `n * sizeof(T)` wraps for adversarial counts.
    HEMO_CHECK_MSG(n <= remaining() / sizeof(T), "serial underrun (vector)");
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n > 0) {
      std::memcpy(v.data(), data_ + pos_, static_cast<std::size_t>(n) * sizeof(T));
    }
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
    return v;
  }

  void getRaw(void* out, std::size_t n) {
    HEMO_CHECK_MSG(remaining() >= n, "serial underrun (raw)");
    // memcpy's pointers must be non-null even for n == 0 (an empty
    // column's data() may be null).
    if (n > 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace hemo::io
