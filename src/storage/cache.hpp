// Edge cache bookkeeping: interest sets with LRU eviction.
//
// An edge node cannot replicate the whole database; a client declares
// interest in objects, which subscribes its node to their updates (paper
// section 4.2). The cache has bounded capacity; evicted objects are
// unsubscribed to save resources (section 5.1.2).
#pragma once

#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/binary_codec.hpp"
#include "util/types.hpp"

namespace colony {

class InterestSet {
 public:
  /// capacity = maximum number of objects; 0 means unbounded.
  explicit InterestSet(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Register interest (or refresh recency). Returns the key evicted to
  /// make room, if any — the caller must unsubscribe and drop it.
  std::optional<ObjectKey> add(const ObjectKey& key);

  /// Touch on read/write so hot objects stay cached.
  void touch(const ObjectKey& key);

  void remove(const ObjectKey& key);
  [[nodiscard]] bool contains(const ObjectKey& key) const {
    return index_.contains(key);
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::vector<ObjectKey> keys() const;

  /// Checkpoint layout: the keys in key order, without the recency order.
  /// decode() replaces the contents and keeps the capacity.
  void encode(Encoder& enc) const;
  void decode(Decoder& dec);

 private:
  std::size_t capacity_;
  std::list<ObjectKey> lru_;  // most-recent at front
  std::unordered_map<ObjectKey, std::list<ObjectKey>::iterator> index_;
};

}  // namespace colony
