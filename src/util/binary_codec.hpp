// Binary serialization used for wire messages and journal persistence.
//
// Little-endian, varint-free fixed-width encoding: the paper sizes vector
// components at 8 bytes (footnote 2) so we keep the same accounting, and
// message sizes reported by the metadata ablation bench reflect it.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace colony {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view of encoded bytes. The receive hot path decodes straight
/// out of the delivered frame: a ByteView never copies, so anything that
/// must outlive the handler call (a stored payload, a queued message) has
/// to be materialised into Bytes explicitly.
using ByteView = std::span<const std::uint8_t>;

/// Append-only encoder.
class Encoder {
 public:
  /// Ensure capacity for `n` more bytes beyond what is already buffered.
  /// Frame encoders size the whole message up front so header, payload and
  /// trailer land in one allocation.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i64(std::int64_t v) { fixed(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    fixed(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    COLONY_ASSERT(s.size() <= UINT32_MAX, "string exceeds u32 length prefix");
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void bytes(ByteView b) {
    COLONY_ASSERT(b.size() <= UINT32_MAX, "buffer exceeds u32 length prefix");
    reserve(sizeof(std::uint32_t) + b.size());
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Append raw bytes with no length prefix (framing owns the length).
  void raw(ByteView b) {
    reserve(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void fixed(T v) {
    // Grow by a fill insert, then copy into place. A range insert from a
    // local array here drew a false -Wstringop-overflow from GCC 12 when
    // inlined after a one-byte push; this form inlines just as well.
    buf_.insert(buf_.end(), sizeof(T), std::uint8_t{0});
    std::memcpy(buf_.data() + buf_.size() - sizeof(T), &v, sizeof(T));
  }

  Bytes buf_;
};

/// Sequential decoder over a byte buffer. Bounds-checked: a read past the
/// end (truncated input, or an oversized length prefix) latches a failure
/// flag instead of touching out-of-bounds memory; from then on every read
/// returns a zero value. Callers check `ok()` when the input is untrusted —
/// dispatchers assert it, since checksum-verified frames cannot be
/// malformed unless encode and decode disagree.
class Decoder {
 public:
  /// The view (and therefore the buffer behind it) must outlive the
  /// decoder AND any view handed out by bytes_view()/tail_view().
  explicit Decoder(ByteView data) : data_(data) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(take<std::uint64_t>()); }
  double f64() {
    const std::uint64_t bits = take<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint32_t n = u32();
    if (!require(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes bytes() {
    const ByteView v = bytes_view();
    return Bytes(v.begin(), v.end());
  }

  /// Length-prefixed payload as a view into the underlying buffer (no
  /// copy). Valid only as long as the buffer the decoder reads from.
  ByteView bytes_view() {
    const std::uint32_t n = u32();
    if (!require(n)) return {};
    const ByteView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  /// Consume and return everything left (unprefixed trailing payload).
  Bytes tail() {
    const ByteView v = tail_view();
    return Bytes(v.begin(), v.end());
  }

  /// Remaining bytes as a view into the underlying buffer (no copy).
  ByteView tail_view() {
    const ByteView v = data_.subspan(pos_);
    pos_ = data_.size();
    return v;
  }

  /// False once any read ran past the end of the buffer.
  [[nodiscard]] bool ok() const { return !failed_; }
  /// Latch the failure flag (container codecs reject absurd length
  /// prefixes before allocating).
  void fail() { failed_ = true; }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T take() {
    if (!require(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  bool require(std::size_t n) {
    // pos_ <= size always holds, so the subtraction cannot underflow.
    if (failed_ || n > data_.size() - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }

  ByteView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace colony
