#include "clock/dot_tracker.hpp"

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace colony {

bool DotTracker::record(const Dot& dot) {
  COLONY_ASSERT(dot.valid(), "recording invalid dot");
  PerOrigin& po = state_[dot.origin];
  if (dot.counter <= po.prefix) return false;
  if (!po.beyond.insert(dot.counter).second) return false;
  // Compact: absorb a now-contiguous run into the prefix.
  auto it = po.beyond.begin();
  while (it != po.beyond.end() && *it == po.prefix + 1) {
    po.prefix = *it;
    it = po.beyond.erase(it);
  }
  return true;
}

bool DotTracker::contains(const Dot& dot) const {
  const auto it = state_.find(dot.origin);
  if (it == state_.end()) return false;
  const PerOrigin& po = it->second;
  return dot.counter <= po.prefix || po.beyond.contains(dot.counter);
}

std::uint64_t DotTracker::prefix(NodeId origin) const {
  const auto it = state_.find(origin);
  return it == state_.end() ? 0 : it->second.prefix;
}

void DotTracker::encode(Encoder& enc) const { codec::write(enc, state_); }

void DotTracker::decode(Decoder& dec) { codec::read_into(dec, state_); }

}  // namespace colony
