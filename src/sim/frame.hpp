// The frame codec: the single definition of the checksummed byte frame that
// every message crosses a link in (sim::Network) and every durable record is
// logged in (storage::Wal).
//
//   [ kind u32 | len u32 | payload[len] | crc32c u32 ]   (little-endian)
//
// The CRC-32C covers header and payload. It runs on the SSE4.2 `crc32`
// instruction when the CPU has it (checked once, at first use), three
// independent chains at a time on long buffers, and on a slicing-by-8 table
// otherwise; all give the same value. A frame that is
// truncated, whose length prefix overruns its buffer, or whose checksum
// disagrees is rejected, so any flipped bit surfaces as loss (transport) or
// as a torn tail (WAL) — never as a wrong value.
#pragma once

#include <cstdint>
#include <optional>

#include "util/binary_codec.hpp"

namespace colony::sim::frame {

inline constexpr std::size_t kHeaderBytes = 8;   // kind u32 + length u32
inline constexpr std::size_t kTrailerBytes = 4;  // crc32c of header+payload
inline constexpr std::size_t kOverheadBytes = kHeaderBytes + kTrailerBytes;

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78): the frame
/// checksum.
[[nodiscard]] std::uint32_t crc32c(ByteView data);

/// The two paths behind crc32c, declared for the tests and micro benches.
namespace detail {

/// Slicing-by-8 tables: the path on CPUs without SSE4.2.
[[nodiscard]] std::uint32_t crc32c_portable(ByteView data);

/// The SSE4.2 path checksums buffers of at least three lanes in stripes of
/// three lanes, one independent chain per lane.
inline constexpr std::size_t kCrc32cLaneBytes = 256;

/// The SSE4.2 path, or nullptr when this CPU (or a non-x86 build) lacks it.
using Crc32cFn = std::uint32_t (*)(ByteView);
[[nodiscard]] Crc32cFn crc32c_hardware();

}  // namespace detail

/// Write one frame in place at the end of `stream` (a stream of frames, or
/// an empty buffer). `payload` must not alias `stream`.
void append(Bytes& stream, std::uint32_t kind, ByteView payload);

/// Seal a payload into a standalone frame: one allocation, sized up front.
[[nodiscard]] Bytes encode(std::uint32_t kind, ByteView payload);

/// Non-owning opened frame: `payload` points into the buffer it was decoded
/// from and is valid only as long as that buffer. The frame occupies
/// `kOverheadBytes + payload.size()` bytes of it.
struct ViewRef {
  std::uint32_t kind = 0;
  ByteView payload;
};

/// Open the first frame of a stream of frames: nullopt when it is
/// truncated, its length prefix runs past the stream, or its checksum
/// fails. Bytes after the frame are not looked at.
[[nodiscard]] std::optional<ViewRef> decode_front(ByteView stream);

/// Open a buffer that must hold exactly one frame (decode_front plus a
/// size check: trailing bytes are rejected too). Zero-copy: the delivery
/// path hands the payload view straight to the actor.
[[nodiscard]] std::optional<ViewRef> decode_view(ByteView frm);

}  // namespace colony::sim::frame
