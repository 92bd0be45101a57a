// The peer group's SI order (paper section 5.1.4), shared by each member's
// EdgeNode and the parent. From the EPaxos delivery sequence every group
// participant derives the same per-key delivery counts, the same PSI
// write-write verdicts for ordered (variant 1) commands, and the same
// visibility order: transactions apply strictly in delivery order, and a
// causally blocked head blocks everything behind it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/visibility.hpp"
#include "dc/messages.hpp"

namespace colony {

class SiOrder {
 public:
  /// The conflict signature of an ordered command over `keys`: delivered
  /// commands per key plus the proposer's own undelivered proposals (so a
  /// node does not conflict with itself).
  [[nodiscard]] std::vector<std::pair<ObjectKey, std::uint64_t>> expected(
      const std::vector<ObjectKey>& keys,
      const std::map<ObjectKey, std::uint64_t>& own_pending) const {
    std::vector<std::pair<ObjectKey, std::uint64_t>> out;
    for (const ObjectKey& key : keys) {
      out.emplace_back(key,
                       count(seen_per_key_, key) + count(own_pending, key));
    }
    return out;
  }

  /// Count a delivered command on its interference `keys`. False when it
  /// is an ordered command that a delivery since its proposal overtook on
  /// one of its keys: a PSI write-write conflict, aborted everywhere.
  bool deliver(const proto::GroupCommand& gc,
               const std::vector<ObjectKey>& keys) {
    bool conflict = false;
    for (const auto& [key, expected] : gc.expected) {
      if (gc.ordered && count(seen_per_key_, key) > expected) conflict = true;
    }
    for (const ObjectKey& key : keys) ++seen_per_key_[key];
    return !conflict;
  }

  /// Ingest a delivered transaction and apply it in delivery order.
  void apply(const Transaction& txn, VisibilityEngine& engine) {
    engine.ingest(txn);
    apply_queue_.push_back(txn.meta.dot);
    drain(engine);
  }

  /// Apply queued transactions in order until the head is causally blocked.
  void drain(VisibilityEngine& engine) {
    while (!apply_queue_.empty() &&
           engine.apply_causal(apply_queue_.front())) {
      apply_queue_.pop_front();
    }
  }

 private:
  static std::uint64_t count(const std::map<ObjectKey, std::uint64_t>& counts,
                             const ObjectKey& key) {
    const auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
  }

  std::map<ObjectKey, std::uint64_t> seen_per_key_;
  std::deque<Dot> apply_queue_;
};

}  // namespace colony
