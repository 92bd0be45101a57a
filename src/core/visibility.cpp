#include "core/visibility.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace colony {

VisibilityEngine::VisibilityEngine(TxnStore& txns, JournalStore& store,
                                   std::size_t num_dcs)
    : txns_(txns), store_(store), state_(num_dcs) {}

// ---------------------------------------------------------------------------
// Event entry points. Each mutates the TxnStore at most once, runs the
// scheduler, then tells the observer (if any) about the event.
// ---------------------------------------------------------------------------

bool VisibilityEngine::ingest(Transaction txn) {
  const Dot dot = txn.meta.dot;
  const bool fresh = txns_.add(std::move(txn));
  if (fresh) {
    add_pending(dot);
  } else if (applied_.contains(dot)) {
    // A duplicate copy can carry commit slots learned only after we applied
    // the transaction (equivalent timestamps after a migration, section
    // 3.8); fold them in so those sequence components keep advancing — and
    // wake dependants parked on this dot's commit info (a read-my-writes
    // apply can precede the commit knowledge they need).
    advance_state(txns_.find(dot)->meta);
  }
  // Fresh, or the merge may have made the record concrete or adopted a
  // resolved snapshot: anything waiting on this dot (itself included) must
  // look again.
  fire_txn_event(dot);
  pump();
  if (observer_ != nullptr) observer_->on_ingested(dot, fresh);
  return fresh;
}

bool VisibilityEngine::admit(Transaction txn) {
  const Dot dot = txn.meta.dot;
  const bool fresh = txns_.add(std::move(txn));
  // The record entered the store without being scheduled for visibility
  // (external ordering owns its application) — but pending transactions
  // naming it as a dep can now resolve their effective snapshots.
  if (applied_.contains(dot)) advance_state(txns_.find(dot)->meta);
  fire_txn_event(dot);
  pump();
  if (observer_ != nullptr) observer_->on_admitted(dot);
  return fresh;
}

void VisibilityEngine::resolve(const Dot& dot, DcId dc, Timestamp ts) {
  if (!txns_.contains(dot)) return;
  txns_.resolve(dot, dc, ts);
  on_resolution(dot);
}

void VisibilityEngine::resolve_full(const Dot& dot, DcId dc, Timestamp ts,
                                    const VersionVector& resolved_snapshot) {
  Transaction* txn = txns_.find_mutable(dot);
  if (txn == nullptr) return;
  txn->meta.snapshot = resolved_snapshot;
  txn->meta.pending_deps.clear();
  txn->meta.mark_accepted(dc, ts);
  on_resolution(dot);
}

void VisibilityEngine::on_resolution(const Dot& dot) {
  if (applied_.contains(dot)) {
    // Already visible locally (read-my-writes fast path): the state vector
    // may now advance past its concrete commit point.
    advance_state(txns_.find(dot)->meta);
  }
  // Wake waiters in EVERY case, applied included: a dependant parked on
  // this dot's commit becoming concrete (its pending_dep) must re-resolve
  // its effective snapshot now — the apply-side events never fire for a
  // resolution that lands after a read-my-writes apply. The reference
  // drain's full rescan covers this implicitly; the indexed scheduler
  // must do it explicitly (found by the drain-equivalence sweep).
  fire_txn_event(dot);
  pump();
  if (observer_ != nullptr) observer_->on_resolved(dot);
}

bool VisibilityEngine::apply_causal(const Dot& dot) {
  const Transaction* txn = txns_.find(dot);
  COLONY_ASSERT(txn != nullptr, "apply_causal of unknown transaction");
  bool applied = applied_.contains(dot);
  if (!applied && txn->meta.snapshot.leq(state_) &&
      std::all_of(txn->meta.pending_deps.begin(),
                  txn->meta.pending_deps.end(),
                  [this](const Dot& dep) { return applied_.contains(dep); })) {
    apply_unscheduled(*txn);
    applied = true;
  }
  if (observer_ != nullptr) observer_->on_apply_causal(dot, applied);
  return applied;
}

void VisibilityEngine::apply_local(const Dot& dot) {
  const Transaction* txn = txns_.find(dot);
  COLONY_ASSERT(txn != nullptr, "apply_local of unknown transaction");
  if (!applied_.contains(dot)) apply_unscheduled(*txn);
  if (observer_ != nullptr) observer_->on_apply_local(dot);
}

void VisibilityEngine::seed_state(const VersionVector& v) {
  state_.merge(v);
  seeded_cut_.merge(v);
  catch_up_state_wakes();
  if (observer_ != nullptr) observer_->on_seeded(v);
}

void VisibilityEngine::drain() {
  catch_up_state_wakes();
  pump();
  if (observer_ != nullptr) observer_->on_drained();
}

// ---------------------------------------------------------------------------
// Shared apply machinery.
// ---------------------------------------------------------------------------

void VisibilityEngine::apply_unscheduled(const Transaction& txn) {
  const Dot dot = txn.meta.dot;
  const bool masked = security_check_ != nullptr && !security_check_(txn);
  apply_ops(txn, masked);
  mark_applied(dot);
  if (masked) mark_masked(dot, txn);
  if (txn.meta.concrete) advance_state(txn.meta);
  if (!masked) on_visible(txn);
  if (pending_set_.contains(dot)) remove_pending(dot);
  fire_apply_event(dot);
  pump();
}

void VisibilityEngine::apply_ops(const Transaction& txn, bool masked) {
  for (const OpRecord& op : txn.ops) {
    if (key_filter_ != nullptr && !key_filter_(op.key)) continue;
    store_.apply(op.key, op.type, txn.meta.dot, op.payload, masked);
  }
}

void VisibilityEngine::mark_applied(const Dot& dot) {
  applied_.insert(dot);
  log_.push_back(dot);
}

void VisibilityEngine::mark_masked(const Dot& dot, const Transaction& txn) {
  masked_.insert(dot);
  auto& origin_bucket = masked_by_origin_[txn.meta.origin];
  if (origin_bucket.empty() || origin_bucket.back() != dot) {
    origin_bucket.push_back(dot);
  }
  for (const OpRecord& op : txn.ops) {
    auto& key_bucket = masked_by_key_[op.key];
    if (key_bucket.empty() || key_bucket.back() != dot) {
      key_bucket.push_back(dot);
    }
  }
}

void VisibilityEngine::rebuild_masked_index() {
  masked_by_origin_.clear();
  masked_by_key_.clear();
  std::unordered_set<Dot> tmp = std::move(masked_);
  masked_.clear();
  for (const Dot& dot : tmp) {
    const Transaction* txn = txns_.find(dot);
    if (txn == nullptr) {
      masked_.insert(dot);
      continue;
    }
    mark_masked(dot, *txn);
  }
}

void VisibilityEngine::advance_state(const TxnMeta& meta) {
  const VersionVector before = state_;
  if (!sequential_) {
    state_.merge(meta.commit_lub());
  } else {
    // Contiguous semantics: record the transaction's own commit slot(s) and
    // only advance each component over its gap-free applied prefix. The
    // snapshot part is safe to merge outright — it gated the apply (it was
    // covered by state_ already) or arrived with a resolution, in which
    // case it is some other replica's (prefix-sound) vector.
    state_.merge(meta.snapshot);
    meta.for_each_accepted([&](DcId dc) {
      applied_slots_.record(Dot{dc, meta.commit.at(dc)});
      const Timestamp prefix = applied_slots_.prefix(dc);
      if (prefix > state_.at(dc)) state_.set(dc, prefix);
    });
  }
  const DcId width = static_cast<DcId>(state_.size());
  for (DcId dc = 0; dc < width; ++dc) {
    if (state_.at(dc) > before.at(dc)) wake_state_component(dc);
  }
}

// ---------------------------------------------------------------------------
// Indexed wake-list scheduler.
// ---------------------------------------------------------------------------

void VisibilityEngine::add_pending(const Dot& dot) {
  pending_set_.insert(dot);
  push_ready(dot);
}

void VisibilityEngine::remove_pending(const Dot& dot) {
  pending_set_.erase(dot);
  covered_pending_.erase(dot);
  guard_gen_.erase(dot);
}

std::uint64_t VisibilityEngine::new_guard_gen(const Dot& dot) {
  const std::uint64_t gen = ++guard_seq_;
  guard_gen_[dot] = gen;
  return gen;
}

void VisibilityEngine::guard_on_txn(const Dot& dot, const Dot& waits_on) {
  wake_on_txn_[waits_on].push_back(WakeRef{dot, new_guard_gen(dot)});
}

void VisibilityEngine::guard_on_apply(const Dot& dot, const Dot& waits_on) {
  wake_on_apply_[waits_on].push_back(WakeRef{dot, new_guard_gen(dot)});
}

void VisibilityEngine::guard_on_state(const Dot& dot, DcId dc,
                                      Timestamp threshold) {
  wake_on_state_[dc].emplace(threshold, WakeRef{dot, new_guard_gen(dot)});
}

void VisibilityEngine::fire_txn_event(const Dot& dot) {
  // Coverage-index this dot BEFORE waking anything: a waiter examined
  // first must see its (now concrete) causal predecessor in
  // covered_pending_, or its within-batch order scan would let it apply
  // ahead of the predecessor — same applied set, but a log order the
  // reference never produces, which flips transitive ACL-mask decisions
  // (found by the drain-equivalence sweep).
  if (pending_set_.contains(dot)) {
    const Transaction* txn = txns_.find(dot);
    if (txn != nullptr && txn->meta.concrete) index_coverage(dot);
  }
  wake_all(wake_on_txn_, dot);
  // The record's own metadata changed (fresh, merged commit slots, or a
  // resolved snapshot): any guard it registered may be stale — its
  // effective snapshot can shrink as well as grow — so re-examine it from
  // scratch rather than trusting the old threshold.
  if (pending_set_.contains(dot)) {
    new_guard_gen(dot);
    push_ready(dot);
  }
}

void VisibilityEngine::fire_apply_event(const Dot& dot) {
  wake_all(wake_on_apply_, dot);
}

void VisibilityEngine::wake(const WakeRef& ref) {
  const auto gen = guard_gen_.find(ref.dot);
  if (gen != guard_gen_.end() && gen->second == ref.gen) push_ready(ref.dot);
}

void VisibilityEngine::wake_all(
    std::unordered_map<Dot, std::vector<WakeRef>>& lists, const Dot& dot) {
  const auto it = lists.find(dot);
  if (it == lists.end()) return;
  const std::vector<WakeRef> refs = std::move(it->second);
  lists.erase(it);
  for (const WakeRef& ref : refs) wake(ref);
}

void VisibilityEngine::wake_state_component(DcId dc) {
  const Timestamp now = state_.at(dc);
  if (auto it = coverage_queue_.find(dc); it != coverage_queue_.end()) {
    auto& queue = it->second;
    while (!queue.empty() && queue.begin()->first <= now) {
      const Dot dot = queue.begin()->second;
      queue.erase(queue.begin());
      if (pending_set_.contains(dot)) covered_pending_.insert(dot);
    }
    if (queue.empty()) coverage_queue_.erase(it);
  }
  if (auto it = wake_on_state_.find(dc); it != wake_on_state_.end()) {
    auto& queue = it->second;
    while (!queue.empty() && queue.begin()->first <= now) {
      const WakeRef ref = queue.begin()->second;
      queue.erase(queue.begin());
      wake(ref);
    }
    if (queue.empty()) wake_on_state_.erase(it);
  }
}

void VisibilityEngine::catch_up_state_wakes() {
  std::vector<DcId> dcs;
  dcs.reserve(coverage_queue_.size() + wake_on_state_.size());
  for (const auto& [dc, _] : coverage_queue_) dcs.push_back(dc);
  for (const auto& [dc, _] : wake_on_state_) dcs.push_back(dc);
  for (DcId dc : dcs) wake_state_component(dc);
}

void VisibilityEngine::index_coverage(const Dot& dot) {
  if (covered_pending_.contains(dot)) return;
  const Transaction* txn = txns_.find(dot);
  bool covered = false;
  txn->meta.for_each_accepted([&](DcId dc) {
    if (covered) return;
    if (txn->meta.commit.at(dc) <= state_.at(dc)) covered = true;
  });
  if (covered) {
    covered_pending_.insert(dot);
    return;
  }
  // Not covered by any accepted component yet: queue under each — any one
  // of them crossing its threshold suffices. Re-registration after a
  // metadata change may leave duplicate queue entries; pops tolerate them
  // (covered_pending_ is a set).
  txn->meta.for_each_accepted([&](DcId dc) {
    coverage_queue_[dc].emplace(txn->meta.commit.at(dc), dot);
  });
}

bool VisibilityEngine::masked_dependency(const Transaction& txn,
                                         const VersionVector& eff) const {
  const auto bucket_hits = [&](const std::vector<Dot>& bucket) {
    for (const Dot& m : bucket) {
      if (!masked_.contains(m)) continue;
      if (txns_.visible_at(m, eff)) return true;
    }
    return false;
  };
  if (auto it = masked_by_origin_.find(txn.meta.origin);
      it != masked_by_origin_.end() && bucket_hits(it->second)) {
    return true;
  }
  for (const OpRecord& op : txn.ops) {
    if (auto it = masked_by_key_.find(op.key);
        it != masked_by_key_.end() && bucket_hits(it->second)) {
      return true;
    }
  }
  return false;
}

bool VisibilityEngine::try_apply(const Dot& dot) {
  const Transaction* txn = txns_.find(dot);
  COLONY_ASSERT(txn != nullptr, "pending dot without transaction record");
  if (applied_.contains(dot)) {  // e.g. applied locally earlier
    remove_pending(dot);
    return true;
  }
  if (!txn->meta.concrete) {
    // Guard: own commit still symbolic — wake when this dot's record gains
    // commit info (resolve / duplicate merge).
    guard_on_txn(dot, dot);
    return false;
  }
  // Concrete: make it discoverable by other candidates' batch-order scans
  // even while it stays blocked on deps or state below.
  index_coverage(dot);

  for (const Dot& dep : txn->meta.pending_deps) {
    const Transaction* d = txns_.find(dep);
    if (d == nullptr || !d->meta.concrete) {
      // Guard: dep unknown or symbolic — wake when the dep's record is
      // ingested/admitted or resolves.
      guard_on_txn(dot, dep);
      return false;
    }
  }

  VersionVector eff;
  const bool have_eff = txns_.effective_snapshot(dot, eff);
  COLONY_ASSERT(have_eff, "deps concrete but effective snapshot missing");
  if (!eff.leq(state_)) {
    // Guard: state-vector component below the effective snapshot — wake
    // when that component reaches the threshold. Re-examination recomputes
    // everything, so guarding the first lagging component is enough.
    const DcId width = static_cast<DcId>(eff.size());
    for (DcId dc = 0; dc < width; ++dc) {
      if (eff.at(dc) > state_.at(dc)) {
        guard_on_state(dot, dc, eff.at(dc));
        return false;
      }
    }
    COLONY_ASSERT(false, "eff not leq state but no lagging component");
  }

  // Within-batch causal order: a seeded cut can make several pending
  // transactions applicable at once, and their arrival order — across two
  // session channels, or after a loss repair — may invert causality. Defer
  // behind any still-pending causal predecessor. Only a concrete pending
  // transaction with an accepted commit component inside the state vector
  // can satisfy visible_at(·, eff) with eff <= state_, and covered_pending_
  // is exactly the maintained superset of those — so scanning it replaces
  // scanning every pending transaction.
  for (const Dot& other : covered_pending_) {
    if (other == dot) continue;
    if (txns_.visible_at(other, eff)) {
      // Guard: wake when the predecessor applies (or its guards re-route
      // it; acyclicity of causal visibility prevents wait cycles).
      guard_on_apply(dot, other);
      return false;
    }
  }

  bool masked = security_check_ != nullptr && !security_check_(*txn);
  if (!masked) masked = masked_dependency(*txn, eff);

  remove_pending(dot);
  apply_ops(*txn, masked);
  mark_applied(dot);
  if (masked) mark_masked(dot, *txn);
  advance_state(txn->meta);
  if (!masked) on_visible(*txn);
  fire_apply_event(dot);
  return true;
}

void VisibilityEngine::on_visible(const Transaction& txn) {
  // A policy update re-evaluates the security mask over the history
  // (sections 5.3, 6.4): previously visible values may disappear and
  // previously masked ones may surface.
  if (policy_key_ != ObjectKey{} &&
      std::any_of(txn.ops.begin(), txn.ops.end(),
                  [&](const OpRecord& op) { return op.key == policy_key_; })) {
    recompute_masks();
  }
  if (visible_hook_ != nullptr) visible_hook_(txn);
}

void VisibilityEngine::pump() {
  if (draining_) return;
  draining_ = true;
  while (!ready_.empty()) {
    const Dot dot = ready_.front();
    ready_.pop_front();
    if (!pending_set_.contains(dot)) continue;
    try_apply(dot);
  }
  draining_ = false;
}

// ---------------------------------------------------------------------------
// Mask recomputation, repair.
// ---------------------------------------------------------------------------

std::size_t VisibilityEngine::recompute_masks() {
  // Re-decide every applied transaction in log order, rebuilding masked_
  // and its data-flow index as the walk goes, so the dependency test sees
  // exactly the earlier decisions. Policy transactions keep their mask.
  const std::unordered_set<Dot> old_masked = std::move(masked_);
  masked_.clear();
  masked_by_origin_.clear();
  masked_by_key_.clear();
  std::vector<Dot> flipped;

  for (const Dot& dot : log_) {
    const Transaction* txn = txns_.find(dot);
    COLONY_ASSERT(txn != nullptr, "visibility log references unknown txn");
    const bool is_policy_txn =
        std::any_of(txn->ops.begin(), txn->ops.end(),
                    [&](const OpRecord& op) { return op.key == policy_key_; });
    bool masked = is_policy_txn
                      ? old_masked.contains(dot)
                      : security_check_ != nullptr && !security_check_(*txn);
    if (!masked && !is_policy_txn) {
      VersionVector eff;
      masked = txns_.effective_snapshot(dot, eff) &&
               masked_dependency(*txn, eff);
    }
    if (masked) mark_masked(dot, *txn);
    if (old_masked.contains(dot) != masked) flipped.push_back(dot);
  }

  std::size_t result = 0;
  if (!flipped.empty()) {
    // Rebuild the current value of every object touched by a flipped txn.
    std::vector<ObjectKey> to_rebuild;
    for (const Dot& dot : flipped) {
      const Transaction* txn = txns_.find(dot);
      for (const OpRecord& op : txn->ops) to_rebuild.push_back(op.key);
    }
    std::sort(to_rebuild.begin(), to_rebuild.end());
    to_rebuild.erase(std::unique(to_rebuild.begin(), to_rebuild.end()),
                     to_rebuild.end());
    const auto visible = visible_predicate();
    for (const ObjectKey& key : to_rebuild) {
      store_.rebuild_current(key, visible);
    }
    result = flipped.size();
  }
  if (observer_ != nullptr) observer_->on_masks_recomputed();
  return result;
}

void VisibilityEngine::reapply_missing(const ObjectKey& key,
                                       const ObjectSnapshot& snap) {
  const std::unordered_set<Dot> in_snapshot(snap.applied.begin(),
                                            snap.applied.end());
  for (const Dot& dot : log_) {
    if (in_snapshot.contains(dot)) continue;
    const Transaction* txn = txns_.find(dot);
    if (txn == nullptr) continue;
    const bool masked = masked_.contains(dot);
    for (const OpRecord& op : txn->ops) {
      if (op.key == key) {
        store_.apply(op.key, op.type, dot, op.payload, masked);
      }
    }
  }
}

JournalStore::DotPredicate VisibilityEngine::visible_predicate() const {
  return [this](const Dot& dot) {
    return applied_.contains(dot) && !masked_.contains(dot);
  };
}

// ---------------------------------------------------------------------------
// Durability: checkpoint export/import.
// ---------------------------------------------------------------------------

void VisibilityEngine::encode_state(Encoder& enc) const {
  // durable_state() is non-const so decode_state can read into it; writing
  // does not mutate.
  codec::write(enc, const_cast<VisibilityEngine*>(this)->durable_state());
}

void VisibilityEngine::decode_state(Decoder& dec) {
  reset();
  auto fields = durable_state();
  codec::read_into(dec, fields);
  applied_.insert(log_.begin(), log_.end());
  rebuild_masked_index();
  // The wake index is derived state: re-register every pending transaction.
  // A checkpoint is only taken at a quiescent point within the node, so
  // every pending transaction is genuinely blocked and this applies
  // nothing. Coverage-index the concrete ones first (see fire_txn_event):
  // they are examined in arbitrary order, and each batch-order scan must
  // already see its covered predecessors.
  for (const Dot& dot : pending_set_) {
    const Transaction* txn = txns_.find(dot);
    if (txn != nullptr && txn->meta.concrete) index_coverage(dot);
  }
  for (const Dot& dot : pending_set_) push_ready(dot);
  pump();
  if (observer_ != nullptr) observer_->on_restored();
}

void VisibilityEngine::reset() {
  const std::size_t num_dcs = state_.size();
  state_ = VersionVector(num_dcs);
  seeded_cut_ = VersionVector();
  applied_slots_.clear();
  log_.clear();
  applied_.clear();
  masked_.clear();
  pending_set_.clear();
  guard_seq_ = 0;
  guard_gen_.clear();
  wake_on_txn_.clear();
  wake_on_apply_.clear();
  wake_on_state_.clear();
  covered_pending_.clear();
  coverage_queue_.clear();
  ready_.clear();
  draining_ = false;
  masked_by_origin_.clear();
  masked_by_key_.clear();
  if (observer_ != nullptr) observer_->on_reset();
}

}  // namespace colony
