// Generic codec over the binary Encoder/Decoder: one declaration per
// message instead of hand-rolled to_bytes/from_bytes boilerplate.
//
// A wire struct opts in by exposing its members as a tie:
//
//   struct PushAck {
//     std::uint64_t seq = 0;
//     bool operator==(const PushAck&) const = default;
//     auto fields() { return std::tie(seq); }
//   };
//
// `codec::write`/`codec::read` then recurse over the tuple, dispatching on
// type: primitives and enums are fixed-width little-endian, strings and
// byte buffers are u32-length-prefixed, vectors, deques, sets and maps are
// a u32 count then their elements (a map entry is its key then its value),
// hash sets the same in sorted order, pairs, tuples, optionals and variants
// recurse, a `std::integral_constant` is a fixed word (a layout version)
// whose read fails on any other value, and types with their own
// `encode`/`decode` members use those. A tuple may hold references, so a
// writer can lay out members it does not own without copying them.
// Transactions, WAL records, CRDT ops and snapshots, and every node and
// store checkpoint are written this way too: this file is the only code
// that lays them out.
//
// Decoding is bounds-checked end to end: the Decoder latches its failure
// flag on truncated input, and container reads reject length prefixes that
// could not possibly fit the remaining bytes before allocating.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "util/assert.hpp"
#include "util/binary_codec.hpp"

namespace colony::codec {

/// Types carrying their own codec members: `void encode(Encoder&) const`
/// plus either `static T decode(Decoder&)` (the clock types, whose compact
/// encodings are tuned by hand, and the adaptor that nests a CRDT behind a
/// pointer) or an in-place `void decode(Decoder&)` (stores and engines that
/// lay out their state as a tie and rebuild derived indexes after reading
/// it, and adaptors that hold a reference to what they lay out).
template <typename T>
concept SelfCodec =
    requires(const T& t, Encoder& enc) { t.encode(enc); } &&
    (requires(Decoder& dec) {
      { T::decode(dec) } -> std::same_as<T>;
    } || requires(T& t, Decoder& dec) {
      { t.decode(dec) } -> std::same_as<void>;
    });

/// Wire structs exposing their members as `std::tie(...)`.
template <typename T>
concept FieldTuple = requires(T& t) { t.fields(); };

namespace detail {

/// Is T an instantiation of the class template Tmpl?
template <typename T, template <typename...> class Tmpl>
inline constexpr bool is_a = false;
template <template <typename...> class Tmpl, typename... Us>
inline constexpr bool is_a<Tmpl<Us...>, Tmpl> = true;

template <typename T>
inline constexpr bool is_constant_v = false;
template <typename U, U kValue>
inline constexpr bool is_constant_v<std::integral_constant<U, kValue>> = true;

}  // namespace detail

template <typename T>
void write(Encoder& enc, const T& v);
template <typename T>
void read_into(Decoder& dec, T& out);

/// Decode a fresh value (read_into on a value-initialised T).
template <typename T>
[[nodiscard]] T read(Decoder& dec) {
  T out{};
  read_into(dec, out);
  return out;
}

namespace detail {

template <typename V, std::size_t... Is>
void read_variant(Decoder& dec, std::uint8_t index, V& out,
                  std::index_sequence<Is...> /*alts*/) {
  bool matched = false;
  auto try_alt = [&]<std::size_t I>() {
    if (I == index) {
      codec::read_into(dec, out.template emplace<I>());
      matched = true;
    }
  };
  (try_alt.template operator()<Is>(), ...);
  if (!matched) dec.fail();  // index beyond the alternatives: corrupt input
}

}  // namespace detail

template <typename T>
void write(Encoder& enc, const T& v) {
  if constexpr (detail::is_constant_v<T>) {
    write(enc, T::value);
  } else if constexpr (std::is_same_v<T, bool>) {
    enc.boolean(v);
  } else if constexpr (std::is_enum_v<T>) {
    write(enc, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (sizeof(T) == 1) {
      enc.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(T) == 2) {
      enc.u16(static_cast<std::uint16_t>(v));
    } else if constexpr (sizeof(T) == 4) {
      enc.u32(static_cast<std::uint32_t>(v));
    } else {
      enc.u64(static_cast<std::uint64_t>(v));
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    enc.f64(static_cast<double>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    enc.str(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    enc.bytes(v);
  } else if constexpr (SelfCodec<T>) {
    v.encode(enc);
  } else if constexpr (detail::is_a<T, std::vector> ||
                       detail::is_a<T, std::deque> ||
                       detail::is_a<T, std::set> || detail::is_a<T, std::map>) {
    COLONY_ASSERT(v.size() <= UINT32_MAX, "container exceeds u32 prefix");
    enc.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& elem : v) write(enc, elem);
  } else if constexpr (detail::is_a<T, std::unordered_set>) {
    // Sorted, so equal sets encode to equal bytes (the std::set layout).
    std::vector<typename T::value_type> sorted(v.begin(), v.end());
    std::sort(sorted.begin(), sorted.end());
    write(enc, sorted);
  } else if constexpr (detail::is_a<T, std::pair>) {
    write(enc, v.first);
    write(enc, v.second);
  } else if constexpr (detail::is_a<T, std::tuple>) {
    std::apply([&enc](const auto&... f) { (write(enc, f), ...); }, v);
  } else if constexpr (detail::is_a<T, std::optional>) {
    enc.boolean(v.has_value());
    if (v.has_value()) write(enc, *v);
  } else if constexpr (detail::is_a<T, std::variant>) {
    static_assert(std::variant_size_v<T> <= 255);
    enc.u8(static_cast<std::uint8_t>(v.index()));
    std::visit([&enc](const auto& alt) { write(enc, alt); }, v);
  } else if constexpr (FieldTuple<T>) {
    // Messages declare a single non-const fields(); writing does not
    // mutate, so shedding constness here is safe.
    write(enc, const_cast<T&>(v).fields());
  } else {
    static_assert(!sizeof(T*), "type has no codec mapping");
  }
}

/// Decode into `out` in place: a fields() struct decodes straight into its
/// members and a vector into elements emplaced at its end, so nested
/// messages build no temporaries on the way.
template <typename T>
void read_into(Decoder& dec, T& out) {
  if constexpr (detail::is_constant_v<std::remove_const_t<T>>) {
    if (read<typename T::value_type>(dec) != T::value) dec.fail();
  } else if constexpr (std::is_same_v<T, bool>) {
    out = dec.boolean();
  } else if constexpr (std::is_enum_v<T>) {
    out = static_cast<T>(read<std::underlying_type_t<T>>(dec));
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (sizeof(T) == 1) {
      out = static_cast<T>(dec.u8());
    } else if constexpr (sizeof(T) == 2) {
      out = static_cast<T>(dec.u16());
    } else if constexpr (sizeof(T) == 4) {
      out = static_cast<T>(dec.u32());
    } else {
      out = static_cast<T>(dec.u64());
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    out = static_cast<T>(dec.f64());
  } else if constexpr (std::is_same_v<T, std::string>) {
    const ByteView v = dec.bytes_view();
    out.assign(reinterpret_cast<const char*>(v.data()), v.size());
  } else if constexpr (std::is_same_v<T, Bytes>) {
    const ByteView v = dec.bytes_view();
    out.assign(v.begin(), v.end());
  } else if constexpr (SelfCodec<T>) {
    if constexpr (requires { { T::decode(dec) } -> std::same_as<T>; }) {
      out = T::decode(dec);
    } else {
      out.decode(dec);
    }
  } else if constexpr (detail::is_a<T, std::vector> ||
                       detail::is_a<T, std::deque>) {
    out.clear();
    const std::uint32_t n = dec.u32();
    // Every element encodes to >= 1 byte, so a count beyond the remaining
    // bytes is a corrupt/hostile prefix: reject before allocating.
    if (n > dec.remaining()) {
      dec.fail();
      return;
    }
    if constexpr (detail::is_a<T, std::vector>) out.reserve(n);
    for (std::uint32_t i = 0; i < n && dec.ok(); ++i) {
      read_into(dec, out.emplace_back());
    }
  } else if constexpr (detail::is_a<T, std::unordered_set>) {
    // One bulk insert, which sizes the table once: the set iterates in the
    // same order as any other set loaded from the same bytes.
    const auto elems = read<std::vector<typename T::value_type>>(dec);
    out.clear();
    out.insert(elems.begin(), elems.end());
  } else if constexpr (detail::is_a<T, std::set>) {
    out.clear();
    const std::uint32_t n = dec.u32();
    if (n > dec.remaining()) {
      dec.fail();
      return;
    }
    for (std::uint32_t i = 0; i < n && dec.ok(); ++i) {
      out.insert(read<typename T::value_type>(dec));
    }
  } else if constexpr (detail::is_a<T, std::map>) {
    out.clear();
    const std::uint32_t n = dec.u32();
    if (n > dec.remaining()) {
      dec.fail();
      return;
    }
    for (std::uint32_t i = 0; i < n && dec.ok(); ++i) {
      auto key = read<typename T::key_type>(dec);
      read_into(dec, out.try_emplace(out.end(), std::move(key))->second);
    }
  } else if constexpr (detail::is_a<T, std::pair>) {
    read_into(dec, out.first);
    read_into(dec, out.second);
  } else if constexpr (detail::is_a<T, std::tuple>) {
    std::apply([&dec](auto&... f) { (read_into(dec, f), ...); }, out);
  } else if constexpr (detail::is_a<T, std::optional>) {
    if (dec.boolean()) {
      read_into(dec, out.emplace());
    } else {
      out.reset();
    }
  } else if constexpr (detail::is_a<T, std::variant>) {
    const std::uint8_t index = dec.u8();
    detail::read_variant(dec, index, out,
                         std::make_index_sequence<std::variant_size_v<T>>{});
  } else if constexpr (FieldTuple<T>) {
    auto fields = out.fields();
    read_into(dec, fields);
  } else {
    static_assert(!sizeof(T*), "type has no codec mapping");
  }
}

template <typename T>
[[nodiscard]] Bytes to_bytes(const T& msg) {
  Encoder enc;
  write(enc, msg);
  return enc.take();
}

/// Decode from untrusted bytes; nullopt on truncation, trailing garbage,
/// or any malformed length prefix. Accepts a view: the receive path hands
/// in the delivered frame's payload without copying it first.
template <typename T>
[[nodiscard]] std::optional<T> try_from_bytes(ByteView bytes) {
  Decoder dec(bytes);
  T out = read<T>(dec);
  if (!dec.ok() || !dec.done()) return std::nullopt;
  return out;
}

/// Decode from trusted bytes (a checksum-verified frame) into `out`, which
/// may be a tie of existing members: a decode failure here means encode
/// and decode disagree, which is a bug, so it asserts.
template <typename T>
void from_bytes(ByteView bytes, T&& out) {
  Decoder dec(bytes);
  read_into(dec, out);
  COLONY_ASSERT(dec.ok() && dec.done(), "message codec round-trip mismatch");
}

template <typename T>
[[nodiscard]] T from_bytes(ByteView bytes) {
  T out{};
  from_bytes(bytes, out);
  return out;
}

/// A hash map whose key is part of its value (a table indexed by an id its
/// records carry), laid out as its values in key order: a u32 count, then
/// each value. Sorting makes equal maps encode to equal bytes; a read
/// derives each key from its value again through `KeyOf`.
template <auto KeyOf, typename Map>
struct ValuesByKey {
  Map& map;

  void encode(Encoder& enc) const {
    std::vector<const typename Map::mapped_type*> values;
    values.reserve(map.size());
    for (const auto& [key, value] : map) values.push_back(&value);
    std::sort(values.begin(), values.end(), [](const auto* a, const auto* b) {
      return KeyOf(*a) < KeyOf(*b);
    });
    enc.u32(static_cast<std::uint32_t>(values.size()));
    for (const auto* value : values) write(enc, *value);
  }

  void decode(Decoder& dec) {
    map.clear();
    const std::uint32_t n = dec.u32();
    if (n > dec.remaining()) dec.fail();
    for (std::uint32_t i = 0; i < n && dec.ok(); ++i) {
      auto value = read<typename Map::mapped_type>(dec);
      const auto key = KeyOf(value);
      map.emplace(key, std::move(value));
    }
  }
};

}  // namespace colony::codec
