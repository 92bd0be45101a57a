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

/// One hardware step over eight input bytes: the raw CRC register, with no
/// pre- or post-inversion (kept 64 bits wide, as the instruction has it).
__attribute__((target("sse4.2"))) inline std::uint64_t crc_word(
    std::uint64_t crc, const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
#if defined(__x86_64__)
  return _mm_crc32_u64(crc, word);
#else
  return _mm_crc32_u32(
      _mm_crc32_u32(static_cast<std::uint32_t>(crc),
                    static_cast<std::uint32_t>(word)),
      static_cast<std::uint32_t>(word >> 32));
#endif
}

constexpr std::size_t kLane = kCrc32cLaneBytes;
constexpr std::size_t kStripe = 3 * kLane;

/// kShift[k][b]: the register that byte b at bits 8k..8k+7 of the register
/// becomes after one lane of zero bytes. The register update is linear, so
/// four lookups shift any register by a lane.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

__attribute__((target("sse4.2"))) ShiftTable make_shift_table() {
  static constexpr std::uint8_t kZeros[8] = {};
  ShiftTable t{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint64_t crc = b << (8 * k);
      for (std::size_t i = 0; i < kLane; i += 8) crc = crc_word(crc, kZeros);
      t[k][b] = static_cast<std::uint32_t>(crc);
    }
  }
  return t;
}

std::uint64_t shift_lane(const ShiftTable& t, std::uint64_t crc) {
  return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
         t[2][(crc >> 16) & 0xFFu] ^ t[3][(crc >> 24) & 0xFFu];
}

/// The single chain: 8-byte words, then single bytes.
__attribute__((target("sse4.2"))) inline std::uint32_t crc_chain(
    std::uint64_t crc, const std::uint8_t* p, std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) crc = crc_word(crc, p);
  auto out = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) out = _mm_crc32_u8(out, *p);
  return out;
}

// Each `crc32` waits for the previous one, so one chain runs at a third of
// the instruction's throughput. Whole stripes of three adjacent lanes run
// as three independent chains, and shifting a lane's register past the
// lane after it folds them into one; the rest takes the single chain.
// Buffers shorter than a stripe go straight to the single chain, without
// entering this function. Both kernels are aligned to a cache line so that
// their loops keep their placement whatever else is linked.
__attribute__((target("sse4.2"), aligned(64), noinline)) std::uint32_t
crc32c_striped(ByteView data) {
  static const ShiftTable kShift = make_shift_table();
  const std::uint8_t* p = data.data();
  const std::uint8_t* const striped_end =
      p + (data.size() - data.size() % kStripe);
  std::uint64_t c0 = 0xFFFFFFFFu;
  for (; p != striped_end; p += kStripe) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kLane; i += 8) {
      c0 = crc_word(c0, p + i);
      c1 = crc_word(c1, p + kLane + i);
      c2 = crc_word(c2, p + 2 * kLane + i);
    }
    c0 = shift_lane(kShift, shift_lane(kShift, c0) ^ c1) ^ c2;
  }
  return crc_chain(c0, p, data.size() % kStripe) ^ 0xFFFFFFFFu;
}

__attribute__((target("sse4.2"), aligned(64))) std::uint32_t crc32c_sse42(
    ByteView data) {
  if (data.size() >= kStripe) return crc32c_striped(data);
  return crc_chain(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
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
