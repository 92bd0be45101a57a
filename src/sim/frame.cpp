#include "sim/frame.hpp"

#include <algorithm>
#include <array>
#include <cstring>

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

std::uint32_t crc32(ByteView data) {
  static constexpr auto kTable = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc = kTable[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void append(Bytes& stream, std::uint32_t kind, ByteView payload) {
  const std::size_t start = stream.size();
  const std::size_t body = kHeaderBytes + payload.size();
  stream.resize(start + body + kTrailerBytes);
  std::uint8_t* const at = stream.data() + start;
  put_u32(at, kind);
  put_u32(at + 4, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), at + kHeaderBytes);
  put_u32(at + body, crc32(ByteView(at, body)));  // trailer, in place
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
  if (get_u32(stream.data() + body) != crc32(stream.first(body))) {
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
