#include "storage/cache.hpp"

#include <algorithm>

#include "util/codec.hpp"

namespace colony {

std::optional<ObjectKey> InterestSet::add(const ObjectKey& key) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return std::nullopt;
  }
  lru_.push_front(key);
  index_[key] = lru_.begin();
  if (capacity_ != 0 && index_.size() > capacity_) {
    ObjectKey victim = lru_.back();
    lru_.pop_back();
    index_.erase(victim);
    return victim;
  }
  return std::nullopt;
}

void InterestSet::touch(const ObjectKey& key) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
  }
}

void InterestSet::remove(const ObjectKey& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  lru_.erase(it->second);
  index_.erase(it);
}

std::vector<ObjectKey> InterestSet::keys() const {
  return {lru_.begin(), lru_.end()};
}

void InterestSet::encode(Encoder& enc) const {
  std::vector<ObjectKey> sorted = keys();
  std::sort(sorted.begin(), sorted.end());
  codec::write(enc, sorted);
}

void InterestSet::decode(Decoder& dec) {
  lru_.clear();
  index_.clear();
  for (const ObjectKey& key : codec::read<std::vector<ObjectKey>>(dec)) {
    add(key);
  }
}

}  // namespace colony
