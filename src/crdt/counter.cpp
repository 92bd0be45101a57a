#include "crdt/counter.hpp"

#include "util/assert.hpp"

namespace colony {

Bytes GCounter::prepare_increment(std::int64_t delta) {
  COLONY_ASSERT(delta >= 0, "GCounter increments must be non-negative");
  return codec::to_bytes(delta);
}

void GCounter::apply(const Bytes& op) {
  const auto delta = codec::from_bytes<std::int64_t>(op);
  COLONY_ASSERT(delta >= 0, "corrupt GCounter op");
  value_ += delta;
}

Bytes PnCounter::prepare_add(std::int64_t delta) {
  return codec::to_bytes(delta);
}

void PnCounter::apply(const Bytes& op) {
  const auto delta = codec::from_bytes<std::int64_t>(op);
  if (delta >= 0) {
    positive_ += delta;
  } else {
    negative_ += -delta;
  }
}

}  // namespace colony
