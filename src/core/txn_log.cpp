#include "core/txn_log.hpp"

#include "util/assert.hpp"

namespace colony {

void VisibilityLog::append(const Dot& dot) {
  if (index_.contains(dot)) return;
  index_.emplace(dot, entries_.size());
  entries_.push_back(dot);
}

std::uint64_t VisibilityLog::position(const Dot& dot) const {
  const auto it = index_.find(dot);
  COLONY_ASSERT(it != index_.end(), "dot not in visibility log");
  return it->second;
}

std::vector<Dot> VisibilityLog::since(std::size_t from) const {
  if (from >= entries_.size()) return {};
  return {entries_.begin() + static_cast<std::ptrdiff_t>(from),
          entries_.end()};
}

void VisibilityLog::encode(Encoder& enc) const {
  enc.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const Dot& dot : entries_) dot.encode(enc);
}

void VisibilityLog::decode(Decoder& dec) {
  clear();
  const std::uint32_t n = dec.u32();
  if (n > dec.remaining()) dec.fail();
  for (std::uint32_t i = 0; i < n && dec.ok(); ++i) {
    append(Dot::decode(dec));
  }
}

}  // namespace colony
