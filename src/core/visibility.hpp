// The visibility engine: causal application of transactions at a replica.
//
// This is the paper's "visibility layer" (sections 3, 4): the backend
// (TxnStore) may hold transactions in any order; the engine decides when a
// transaction may become visible — all causal dependencies visible, commit
// concrete — and folds its operations into the journal store, appends it to
// the visibility log, and advances the replica's state vector. Transactions
// whose dependencies are missing wait in a pending buffer.
//
// The drain is an indexed wake-list scheduler (DESIGN.md §8): every blocked
// transaction registers ONE guard — the first unmet condition of its
// applicability check (own commit symbolic, a pending dep unknown/symbolic,
// a state-vector component below a threshold, or an unapplied causal
// predecessor) — and is re-examined only when that guard's wake event
// fires, so a backlog drains in O(n log n). The original rescan-until-no-
// progress drain survives as a test-only executable specification
// (tests/support/reference_drain), fed every event through the Observer
// seam and compared against this engine.
//
// A security hook can veto visibility of a transaction's *values* (ACL
// masking, sections 5.3/6.4): a masked transaction is still delivered and
// still advances metadata, but its operations are excluded from
// materialised values, transitively with its causal dependants.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "clock/dot_tracker.hpp"
#include "core/txn.hpp"
#include "storage/journal_store.hpp"

namespace colony {

class VisibilityEngine {
 public:
  /// Returns true when the transaction's values may be shown (ACL pass).
  using SecurityCheck = std::function<bool(const Transaction&)>;
  /// Notified for every transaction that becomes visible (reactive
  /// subscriptions, replication fan-out).
  using VisibleHook = std::function<void(const Transaction&)>;
  /// Which object keys this replica materialises. Edge caches track only
  /// their interest set: ops on other keys are skipped (the transaction
  /// still counts as applied; reapply_missing repairs the gap if the key
  /// is fetched later). Replicas without a filter keep everything.
  using KeyFilter = std::function<bool(const ObjectKey&)>;

  /// Told of each event after the engine has handled it (a test-only
  /// reference drain replays the stream; production engines have none).
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void on_ingested(const Dot& dot, bool fresh) = 0;
    virtual void on_admitted(const Dot& dot) = 0;
    virtual void on_resolved(const Dot& dot) = 0;
    virtual void on_apply_causal(const Dot& dot, bool applied) = 0;
    virtual void on_apply_local(const Dot& dot) = 0;
    virtual void on_seeded(const VersionVector& v) = 0;
    virtual void on_drained() = 0;
    virtual void on_masks_recomputed() = 0;
    virtual void on_restored() = 0;
    virtual void on_reset() = 0;
  };

  VisibilityEngine(TxnStore& txns, JournalStore& store, std::size_t num_dcs);

  /// Ingest a transaction learned from the network or committed locally.
  /// Returns true if it was new (not a duplicate dot).
  bool ingest(Transaction txn);

  /// Record a transaction in the backend WITHOUT scheduling it for
  /// visibility (peer-group commands await external ordering before
  /// apply_causal). Still fires dependency wakes: a pending transaction
  /// waiting on this dot as an unknown dep must be re-examined.
  /// Returns TxnStore::add's result.
  bool admit(Transaction txn);

  /// Merge resolution info (a DC assigned dot's commit timestamp), then try
  /// to drain the pending buffer.
  void resolve(const Dot& dot, DcId dc, Timestamp ts);

  /// Full resolution as carried by a DC commit acknowledgement: install the
  /// DC-resolved concrete snapshot (clearing symbolic pending deps) plus
  /// the commit timestamp — the Fig. 2 step-8 "fill in [α,β,γ]".
  void resolve_full(const Dot& dot, DcId dc, Timestamp ts,
                    const VersionVector& resolved_snapshot);

  /// Apply a transaction in an externally-agreed order (peer-group SI
  /// order, section 5.1.4): requires the concrete part of its snapshot to
  /// be covered by the local state and its same-origin pending deps to be
  /// applied locally, but not a concrete commit vector. Returns false if
  /// those causal prerequisites are not met yet.
  bool apply_causal(const Dot& dot);

  /// Try to apply pending transactions; call after any state change.
  void drain();

  /// Force-apply a locally committed transaction before its commit vector
  /// is concrete (read-my-writes, section 3.8): its values enter the cache
  /// immediately; the state vector advances only once it resolves.
  void apply_local(const Dot& dot);

  [[nodiscard]] const VersionVector& state_vector() const { return state_; }
  /// The visibility log (paper section 5.1.4): every applied dot, in the
  /// order it became visible here. applied_set() is its index.
  [[nodiscard]] const std::vector<Dot>& log() const { return log_; }
  [[nodiscard]] bool is_applied(const Dot& dot) const {
    return applied_.contains(dot);
  }
  [[nodiscard]] bool is_masked(const Dot& dot) const {
    return masked_.contains(dot);
  }
  [[nodiscard]] std::size_t pending_count() const {
    return pending_set_.size();
  }
  /// Every applied dot: the set of log() entries.
  [[nodiscard]] const std::unordered_set<Dot>& applied_set() const {
    return applied_;
  }
  /// Every masked dot (equivalence checkers compare this across drains).
  [[nodiscard]] const std::unordered_set<Dot>& masked_set() const {
    return masked_;
  }
  /// Every pending dot (equivalence checkers compare this across drains).
  [[nodiscard]] const std::unordered_set<Dot>& pending_set() const {
    return pending_set_;
  }

  // Configuration. The getters let an Observer read it live.
  void set_security_check(SecurityCheck check) {
    security_check_ = std::move(check);
  }
  [[nodiscard]] const SecurityCheck& security_check() const {
    return security_check_;
  }

  /// Key of the policy object itself. A visible transaction writing it
  /// re-evaluates the masks (recompute_masks) just before the visible hook
  /// runs. Transactions touching it keep their at-apply mask decision
  /// during recompute_masks: re-judging an administrative change under the
  /// policy it created would let a bootstrap grant mask itself. Unset (the
  /// default), no transaction is a policy write.
  void set_policy_key(ObjectKey key) { policy_key_ = std::move(key); }
  [[nodiscard]] const ObjectKey& policy_key() const { return policy_key_; }
  void set_visible_hook(VisibleHook hook) { visible_hook_ = std::move(hook); }
  void set_key_filter(KeyFilter filter) { key_filter_ = std::move(filter); }
  [[nodiscard]] const TxnStore& txns() const { return txns_; }
  /// Nullable, not owned; must outlive its attachment.
  void set_observer(Observer* observer) { observer_ = observer; }

  /// Seed the state vector (e.g. from an initial checkout). Callers must
  /// guarantee the premise a seed asserts: every transaction below `v` is
  /// materialised here — via imported snapshots or delivered pushes.
  /// Call drain() afterwards to apply anything the seed unblocked.
  void seed_state(const VersionVector& v);

  /// Least upper bound of every cut ever seeded: the provable "I possess
  /// everything below this" baseline. The state vector itself can run
  /// ahead of possession — resolving an own commit merges the DC-resolved
  /// snapshot (read-my-writes), which may cover foreign transactions this
  /// replica never received — so migration hand-off must use this cut,
  /// not the state vector, to decide what the new DC needs to backfill.
  [[nodiscard]] const VersionVector& seeded_cut() const {
    return seeded_cut_;
  }

  /// DC replicas apply every transaction of every commit sequence, so each
  /// state-vector component must advance *contiguously*: state_[d] = ts
  /// asserts that all of d's slots through ts are applied here, which is
  /// what the snapshot gate and the gossip anti-entropy read off it.
  /// Merging a transaction's own commit slot directly (the default) would
  /// silently skip over a crash-induced replication gap — a later
  /// transaction of the same origin could become visible before its
  /// predecessor. Edge caches must NOT enable this: they skip transactions
  /// outside their interest cut and advance via seeded K-stable cuts.
  void set_sequential_components(bool on) { sequential_ = on; }
  [[nodiscard]] bool sequential_components() const { return sequential_; }

  /// Re-evaluate the security mask over the whole history (after an ACL
  /// change) and rebuild affected objects' current values. Returns the
  /// number of transactions whose mask flipped.
  std::size_t recompute_masks();

  /// Predicate for JournalStore::materialize: applied and not masked.
  [[nodiscard]] JournalStore::DotPredicate visible_predicate() const;

  /// After importing a fetched snapshot of `key`, re-apply the operations
  /// of locally-applied transactions the snapshot does not contain (in
  /// local visibility order). Without this, evicting an object and
  /// re-fetching an older (K-stable) version would silently lose local
  /// context the node has already observed — and a later operation
  /// depending on it (e.g. an RGA insert after a lost element) could not
  /// be replayed.
  void reapply_missing(const ObjectKey& key, const ObjectSnapshot& snap);

  // --- durability (checkpoint export/import) -------------------------------

  /// Serialize the engine's durable state: state vector, seeded cut,
  /// applied commit slots, visibility log, masked/pending sets. The log
  /// is the applied set; decode_state rebuilds the index from it.
  /// Deterministic — unordered sets encode sorted — so byte equality of
  /// two encodings proves state equality. Scheduler wake structures are
  /// derived state and are NOT serialized; decode_state rebuilds them.
  void encode_state(Encoder& enc) const;

  /// Restore from encode_state bytes. Configuration (security check,
  /// hooks, key filter, observer, sequential components) is not part of
  /// the payload and must be wired by the owner beforehand, exactly as at
  /// construction.
  void decode_state(Decoder& dec);

  /// The engine as one field of a node's checkpoint, laid out by
  /// encode_state and read back by decode_state.
  struct Checkpoint {
    VisibilityEngine& engine;
    void encode(Encoder& enc) const { engine.encode_state(enc); }
    void decode(Decoder& dec) { engine.decode_state(dec); }
  };

  /// Drop every piece of engine state (crash): applied/masked/pending
  /// sets, log, state vector, wake index. Configuration wiring survives.
  void reset();

 private:
  /// Guard registrations are tagged with a generation; stale wake entries
  /// (the dot re-registered elsewhere, or applied) are skipped on fire.
  struct WakeRef {
    Dot dot;
    std::uint64_t gen = 0;
  };

  /// Apply a transaction outside the drain (read-my-writes or external
  /// order), then drain whatever that unblocked.
  void apply_unscheduled(const Transaction& txn);
  void apply_ops(const Transaction& txn, bool masked);
  /// Record `dot` as applied: appended to the log and its index.
  void mark_applied(const Dot& dot);
  /// Advance state_ with an applied transaction's commit knowledge —
  /// contiguously per component when sequential_ is set — and fire the
  /// state wakes of every component that moved.
  void advance_state(const TxnMeta& meta);
  void mark_masked(const Dot& dot, const Transaction& txn);
  /// An unmasked transaction became visible: re-evaluate the masks if it
  /// writes the policy, then run the visible hook.
  void on_visible(const Transaction& txn);
  /// Shared tail of resolve/resolve_full: the record's commit info changed.
  void on_resolution(const Dot& dot);

  bool try_apply(const Dot& dot);
  void pump();
  void push_ready(const Dot& dot) { ready_.push_back(dot); }
  std::uint64_t new_guard_gen(const Dot& dot);
  void guard_on_txn(const Dot& dot, const Dot& waits_on);
  void guard_on_apply(const Dot& dot, const Dot& waits_on);
  void guard_on_state(const Dot& dot, DcId dc, Timestamp threshold);
  /// Wake everything blocked on `dot` being ingested or becoming concrete,
  /// and re-examine `dot` itself if pending.
  void fire_txn_event(const Dot& dot);
  void fire_apply_event(const Dot& dot);
  /// Re-examine the waiter of `ref` unless its guard went stale (the dot
  /// re-registered elsewhere, or left the pending set).
  void wake(const WakeRef& ref);
  /// Take the wake list registered under `dot` out of `lists` and wake it.
  void wake_all(std::unordered_map<Dot, std::vector<WakeRef>>& lists,
                const Dot& dot);
  /// Pop state-threshold guards and coverage entries up to state_[dc].
  void wake_state_component(DcId dc);
  /// Pop every state/coverage queue against the current state vector.
  void catch_up_state_wakes();
  /// Register a concrete pending txn in the coverage index (the batch
  /// causal-order check scans only covered pending txns).
  void index_coverage(const Dot& dot);
  void add_pending(const Dot& dot);
  void remove_pending(const Dot& dot);
  /// Does `txn`, reading snapshot `eff`, causally depend on a masked
  /// transaction in a way that makes its values untrustworthy? Vector
  /// metadata only gives a conservative happened-before; masking
  /// *everything* after a masked transaction would freeze the system, so
  /// masks propagate along real data-flow channels: the dependant was
  /// issued by the same origin (it built on its own masked state) or
  /// touches an object the masked transaction wrote (it read the masked
  /// value). Answered from the per-origin/per-key buckets.
  [[nodiscard]] bool masked_dependency(const Transaction& txn,
                                       const VersionVector& eff) const;
  void rebuild_masked_index();
  /// The checkpoint layout; every other member is derived from these.
  auto durable_state() {
    return std::tie(state_, seeded_cut_, applied_slots_, log_, masked_,
                    pending_set_);
  }

  TxnStore& txns_;
  JournalStore& store_;
  VersionVector state_;
  VersionVector seeded_cut_;
  bool sequential_ = false;
  /// Per-DC applied commit slots (origin = DcId): contiguous prefix plus
  /// out-of-order slots, used only in sequential mode.
  DotTracker applied_slots_;
  /// Applied dots in visibility order, and the same dots as a set.
  std::vector<Dot> log_;
  std::unordered_set<Dot> applied_;
  std::unordered_set<Dot> masked_;
  std::unordered_set<Dot> pending_set_;
  SecurityCheck security_check_;
  VisibleHook visible_hook_;
  KeyFilter key_filter_;
  ObjectKey policy_key_;
  Observer* observer_ = nullptr;

  // --- scheduler state ------------------------------------------------------
  std::uint64_t guard_seq_ = 0;
  std::unordered_map<Dot, std::uint64_t> guard_gen_;
  /// dep dot -> waiters re-examined when the dep is ingested/admitted or
  /// gains commit info (covers "dep unknown", "dep symbolic", and "own
  /// commit symbolic" — the latter keyed by the waiter's own dot).
  std::unordered_map<Dot, std::vector<WakeRef>> wake_on_txn_;
  /// applied dot -> waiters deferred behind a still-pending causal
  /// predecessor (the within-batch causal-order rule).
  std::unordered_map<Dot, std::vector<WakeRef>> wake_on_apply_;
  /// Per-DC threshold queues: woken when state_[dc] reaches the key.
  std::unordered_map<DcId, std::multimap<Timestamp, WakeRef>> wake_on_state_;
  /// Pending concrete txns with some accepted commit component inside the
  /// state vector — the only txns a ready candidate can causally follow
  /// (superset of {pending visible at any cut <= state}).
  std::unordered_set<Dot> covered_pending_;
  /// Not-yet-covered concrete pending txns, keyed per accepting DC by
  /// commit[dc]; drained into covered_pending_ as state_[dc] advances.
  std::unordered_map<DcId, std::multimap<Timestamp, Dot>> coverage_queue_;
  std::deque<Dot> ready_;
  bool draining_ = false;

  /// Data-flow index over masked_: origin -> masked dots, key -> masked
  /// dots. `txn` depends on masked `m` iff m is in txn's origin bucket or
  /// in a bucket of a key txn touches.
  std::unordered_map<NodeId, std::vector<Dot>> masked_by_origin_;
  std::unordered_map<ObjectKey, std::vector<Dot>> masked_by_key_;
};

}  // namespace colony
