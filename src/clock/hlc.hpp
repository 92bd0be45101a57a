// Hybrid logical clock: an edge node's arbitration clock.
//
// Every LWW-style operation an edge prepares carries an Arb whose timestamp
// comes from this clock (section 3.5's total arbitration order). The HLC
// combines the node's (possibly skewed) physical clock with a logical
// component, so its timestamps are monotonic, and witnessing the timestamp
// of a value the node has read orders what it writes next after it, even
// when the writer's clock runs behind the reader's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "util/types.hpp"

namespace colony {

class HybridLogicalClock {
 public:
  /// `physical_now` is supplied by the caller (the simulator's notion of
  /// this node's physical clock, including its skew).
  Timestamp tick(SimTime physical_now);

  /// Witness a timestamp seen elsewhere (a value read from another node):
  /// the clock advances past it so the next local event orders after it.
  Timestamp witness(SimTime physical_now, Timestamp remote);

  [[nodiscard]] Timestamp last() const { return last_; }

  /// Crash-recovery: reload the persisted high-water mark. Monotonicity is
  /// preserved because the durable value is at least as fresh as any
  /// timestamp this clock handed out before the crash.
  void restore(Timestamp last) { last_ = last; }

  /// Checkpoint layout: the high-water mark.
  auto fields() { return std::tie(last_); }

 private:
  Timestamp last_ = 0;
};

}  // namespace colony
