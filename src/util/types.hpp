// Strong identifier types shared across the Colony code base.
//
// Every entity in the topology (data centres, edge nodes, peer groups,
// users) and every datum (objects, buckets, transactions) is referenced by
// a distinct strong type so that ids cannot be mixed up across layers.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>

namespace colony {

/// Index of a data centre in the core mesh. Version vectors carry one
/// component per DcId, which is what bounds metadata to O(#DCs).
using DcId = std::uint32_t;

/// Upper bound on the number of data centres. Commit metadata stores the
/// set of accepting DCs as a fixed-width bitmask (TxnMeta::accepted_mask),
/// so this constant and that mask width must agree — a static_assert next
/// to the mask ties them together. Every "for each DC" loop derives its
/// bound from the mask or the vector at hand, never from this literal.
inline constexpr DcId kMaxDcs = 32;

/// Globally unique identifier of a node (DC, border PoP, or far-edge
/// device). DCs occupy the low range [0, kMaxDcs); edge nodes are assigned
/// ids above it by the topology builder.
using NodeId = std::uint64_t;

/// Identifier of a peer group. A peer group counts as a single logical node
/// in the tree (paper footnote 3).
using GroupId = std::uint64_t;

/// A user principal for access control.
using UserId = std::uint64_t;

/// Logical clock value; 8 bytes so it never wraps (paper footnote 2).
using Timestamp = std::uint64_t;

/// Simulated time in microseconds since the start of the run.
using SimTime = std::uint64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;

/// Name of an object within a bucket. Buckets namespace objects
/// (paper section 6.1); the full key is bucket + "/" + name.
struct ObjectKey {
  std::string bucket;
  std::string name;

  auto operator<=>(const ObjectKey&) const = default;

  [[nodiscard]] std::string full() const { return bucket + "/" + name; }

  auto fields() { return std::tie(bucket, name); }
};

/// Hash of a directed link (from, to): the network's link table and the
/// per-link wire counters are keyed by it.
struct LinkHash {
  std::size_t operator()(const std::pair<NodeId, NodeId>& link) const noexcept {
    return std::hash<NodeId>{}(link.first * 0x9e3779b97f4a7c15ULL ^
                               link.second);
  }
};

}  // namespace colony

template <>
struct std::hash<colony::ObjectKey> {
  std::size_t operator()(const colony::ObjectKey& k) const noexcept {
    std::size_t h1 = std::hash<std::string>{}(k.bucket);
    std::size_t h2 = std::hash<std::string>{}(k.name);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};
