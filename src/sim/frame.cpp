#include "sim/frame.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#endif

namespace colony::sim::frame {

namespace {

void put_u32(std::uint8_t* at, std::uint32_t v) {
  std::memcpy(at, &v, sizeof(v));
}

std::uint32_t get_u32(const std::uint8_t* at) {
  std::uint32_t v;
  std::memcpy(&v, at, sizeof(v));
  return v;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(ByteView data) {
  // kTable[k][b]: the CRC of byte b followed by k zero bytes, so one step
  // folds eight input bytes with eight lookups.
  static constexpr auto kTable = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = get_u32(p) ^ crc;
    const std::uint32_t hi = get_u32(p + 4);
    crc = kTable[7][lo & 0xFFu] ^ kTable[6][(lo >> 8) & 0xFFu] ^
          kTable[5][(lo >> 16) & 0xFFu] ^ kTable[4][lo >> 24] ^
          kTable[3][hi & 0xFFu] ^ kTable[2][(hi >> 8) & 0xFFu] ^
          kTable[1][(hi >> 16) & 0xFFu] ^ kTable[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTable[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    ByteView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
#if defined(__x86_64__)
    crc = static_cast<std::uint32_t>(_mm_crc32_u64(crc, word));
#else
    crc = _mm_crc32_u32(_mm_crc32_u32(crc, static_cast<std::uint32_t>(word)),
                        static_cast<std::uint32_t>(word >> 32));
#endif
  }
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

Crc32cFn crc32c_hardware() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") ? &crc32c_sse42 : nullptr;
}

#else

Crc32cFn crc32c_hardware() { return nullptr; }

#endif

}  // namespace detail

std::uint32_t crc32c(ByteView data) {
  static const detail::Crc32cFn kImpl = [] {
    const detail::Crc32cFn hardware = detail::crc32c_hardware();
    return hardware != nullptr ? hardware : &detail::crc32c_portable;
  }();
  return kImpl(data);
}

void append(Bytes& stream, std::uint32_t kind, ByteView payload) {
  const std::size_t start = stream.size();
  const std::size_t body = kHeaderBytes + payload.size();
  stream.resize(start + body + kTrailerBytes);
  std::uint8_t* const at = stream.data() + start;
  put_u32(at, kind);
  put_u32(at + 4, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), at + kHeaderBytes);
  put_u32(at + body, crc32c(ByteView(at, body)));  // trailer, in place
}

Bytes encode(std::uint32_t kind, ByteView payload) {
  Bytes frm;
  frm.reserve(kOverheadBytes + payload.size());
  append(frm, kind, payload);
  return frm;
}

std::optional<ViewRef> decode_front(ByteView stream) {
  if (stream.size() < kOverheadBytes) return std::nullopt;
  const std::uint64_t len = get_u32(stream.data() + 4);
  if (len > stream.size() - kOverheadBytes) return std::nullopt;
  const std::size_t body = kHeaderBytes + len;
  if (get_u32(stream.data() + body) != crc32c(stream.first(body))) {
    return std::nullopt;
  }
  return ViewRef{get_u32(stream.data()), stream.subspan(kHeaderBytes, len)};
}

std::optional<ViewRef> decode_view(ByteView frm) {
  const auto view = decode_front(frm);
  if (!view || kOverheadBytes + view->payload.size() != frm.size()) {
    return std::nullopt;
  }
  return view;
}

}  // namespace colony::sim::frame
