// DotTracker: duplicate filtering for at-least-once transaction delivery.
//
// After a migration an edge node re-sends unacknowledged transactions to its
// new DC, so a replica may receive the same transaction twice (section 3.8).
// Every node tracks, per origin, the contiguous prefix of applied dot
// counters plus any out-of-order dots beyond it, and ignores a transaction
// whose dot was already seen.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <tuple>

#include "clock/dot.hpp"

namespace colony {

class DotTracker {
 public:
  /// Record `dot` as seen. Returns false if it was already known
  /// (i.e. the caller must not replay the transaction).
  bool record(const Dot& dot);

  [[nodiscard]] bool contains(const Dot& dot) const;

  /// Highest contiguously-applied counter for an origin (0 if none).
  [[nodiscard]] std::uint64_t prefix(NodeId origin) const;

  /// Number of origins tracked (for introspection/tests).
  [[nodiscard]] std::size_t origins() const { return state_.size(); }

  /// Checkpoint serialization: the codec layout of the per-origin map, in
  /// origin order. decode() replaces contents.
  void encode(Encoder& enc) const;
  void decode(Decoder& dec);
  void clear() { state_.clear(); }

 private:
  struct PerOrigin {
    std::uint64_t prefix = 0;         // all counters <= prefix are seen
    std::set<std::uint64_t> beyond;   // out-of-order counters > prefix

    auto fields() { return std::tie(prefix, beyond); }
  };

  std::map<NodeId, PerOrigin> state_;
};

}  // namespace colony
