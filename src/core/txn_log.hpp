// Visibility log: the order in which transactions became visible at a node.
//
// Peer-group members keep a visibility log (paper section 5.1.4); sync
// points replay it towards the DC so that "different sync points send
// identical information" (section 5.1.3). Edge nodes and DCs use the same
// structure to answer "what am I missing since index i?".
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "clock/dot.hpp"

namespace colony {

class VisibilityLog {
 public:
  /// Append the next visible transaction. Ignores duplicates.
  void append(const Dot& dot);

  [[nodiscard]] bool contains(const Dot& dot) const {
    return index_.contains(dot);
  }

  /// Position of a dot in the log (for "is A before B here?" checks).
  [[nodiscard]] std::uint64_t position(const Dot& dot) const;

  [[nodiscard]] const std::vector<Dot>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Entries from index `from` (inclusive) onwards.
  [[nodiscard]] std::vector<Dot> since(std::size_t from) const;

  /// Checkpoint serialization: entry order is the log's payload, so the
  /// vector encodes as-is; the position index is rebuilt on decode.
  void encode(Encoder& enc) const;
  void decode(Decoder& dec);
  void clear() {
    entries_.clear();
    index_.clear();
  }

 private:
  std::vector<Dot> entries_;
  std::unordered_map<Dot, std::uint64_t> index_;
};

}  // namespace colony
