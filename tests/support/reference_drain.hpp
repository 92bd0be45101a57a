// Fixpoint reference drain: the executable specification of the visibility
// relation that VisibilityEngine's indexed wake-list scheduler implements
// (DESIGN.md §8). Test-only.
//
// The reference is the original drain, kept verbatim: rescan the whole
// pending buffer, in arrival order, until a pass makes no progress; defer a
// transaction while any pending transaction is visible at its effective
// snapshot (within-batch causal order); mask transitively by scanning the
// whole masked set. It is super-quadratic and keeps no index, which is what
// makes it a trustworthy oracle.
//
// Attached as the primary engine's Observer, it replays every event the
// primary handles against its own applied/masked/pending sets and state
// vector, reading the shared TxnStore and the primary's configuration
// (security check, policy key, sequential components) live. It writes to
// no store: only the relation is compared. After a restore it re-syncs
// from the primary's encode_state bytes, so equivalence checking survives
// a crash-restart.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "clock/dot_tracker.hpp"
#include "core/visibility.hpp"

namespace colony {

class ReferenceDrain final : public VisibilityEngine::Observer {
 public:
  /// Attach to `primary` and adopt its current state; detaches on
  /// destruction. `primary` must outlive the reference.
  explicit ReferenceDrain(VisibilityEngine& primary);
  ~ReferenceDrain() override;
  ReferenceDrain(const ReferenceDrain&) = delete;
  ReferenceDrain& operator=(const ReferenceDrain&) = delete;

  /// True when the primary agrees with the reference on applied set,
  /// masked set, state vector, pending set, and every apply_causal verdict
  /// so far. On mismatch `why` (if non-null) receives a description.
  [[nodiscard]] bool matches(std::string* why = nullptr) const;

  void on_ingested(const Dot& dot, bool fresh) override;
  void on_admitted(const Dot& dot) override;
  void on_resolved(const Dot& dot) override;
  void on_apply_causal(const Dot& dot, bool applied) override;
  void on_apply_local(const Dot& dot) override;
  void on_seeded(const VersionVector& v) override;
  void on_drained() override;
  void on_masks_recomputed() override;
  void on_restored() override;
  void on_reset() override;

 private:
  void sync_from_primary();
  void reset();
  void drain();
  bool try_apply(const Dot& dot);
  /// apply_local / apply_causal: apply now, without draining afterwards.
  void apply_unscheduled(const Transaction& txn);
  void record_applied(const Dot& dot, bool masked);
  void advance_state(const TxnMeta& meta);
  [[nodiscard]] bool vetoed(const Transaction& txn) const;

  VisibilityEngine& primary_;
  const TxnStore& txns_;
  VersionVector state_;
  DotTracker applied_slots_;
  std::vector<Dot> log_;
  std::unordered_set<Dot> applied_;
  std::unordered_set<Dot> masked_;
  std::unordered_set<Dot> pending_set_;
  std::vector<Dot> pending_;  // arrival order: the scan order
  std::string divergence_;    // first apply_causal disagreement
};

}  // namespace colony
