#include "support/reference_drain.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace colony {

namespace {

/// Transitive masking follows data flow: the dependant was issued by the
/// masked transaction's origin, or touches an object it wrote.
bool masked_dependency(const Transaction& txn, const Transaction& m) {
  if (txn.meta.origin == m.meta.origin) return true;
  for (const OpRecord& a : txn.ops) {
    for (const OpRecord& b : m.ops) {
      if (a.key == b.key) return true;
    }
  }
  return false;
}

std::string set_mismatch(const char* what, std::size_t indexed,
                         std::size_t reference) {
  std::ostringstream os;
  os << what << " sets differ: indexed=" << indexed
     << " reference=" << reference;
  return os.str();
}

}  // namespace

ReferenceDrain::ReferenceDrain(VisibilityEngine& primary)
    : primary_(primary), txns_(primary.txns()) {
  primary_.set_observer(this);
  sync_from_primary();
}

ReferenceDrain::~ReferenceDrain() { primary_.set_observer(nullptr); }

bool ReferenceDrain::matches(std::string* why) const {
  const auto report = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (!divergence_.empty()) return report(divergence_);
  if (primary_.applied_set() != applied_) {
    return report(
        set_mismatch("applied", primary_.applied_set().size(), applied_.size()));
  }
  if (primary_.masked_set() != masked_) {
    return report(
        set_mismatch("masked", primary_.masked_set().size(), masked_.size()));
  }
  const VersionVector& theirs = primary_.state_vector();
  if (!(state_.leq(theirs) && theirs.leq(state_))) {
    return report("state vectors differ");
  }
  if (primary_.pending_set() != pending_set_) {
    return report(set_mismatch("pending", primary_.pending_set().size(),
                               pending_set_.size()));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Events, replayed against the reference's own state.
// ---------------------------------------------------------------------------

void ReferenceDrain::on_ingested(const Dot& dot, bool fresh) {
  if (fresh) {
    pending_set_.insert(dot);
    pending_.push_back(dot);
  } else if (applied_.contains(dot)) {
    advance_state(txns_.find(dot)->meta);
  }
  drain();
}

void ReferenceDrain::on_admitted(const Dot& dot) {
  if (applied_.contains(dot)) advance_state(txns_.find(dot)->meta);
  drain();
}

void ReferenceDrain::on_resolved(const Dot& dot) {
  // Same as an admit: the record's commit info may have grown.
  on_admitted(dot);
}

void ReferenceDrain::on_apply_causal(const Dot& dot, bool applied) {
  const Transaction* txn = txns_.find(dot);
  COLONY_ASSERT(txn != nullptr, "apply_causal of unknown transaction");
  bool mine = applied_.contains(dot);
  if (!mine && txn->meta.snapshot.leq(state_) &&
      std::all_of(txn->meta.pending_deps.begin(),
                  txn->meta.pending_deps.end(),
                  [this](const Dot& dep) { return applied_.contains(dep); })) {
    apply_unscheduled(*txn);
    mine = true;
  }
  if (mine != applied && divergence_.empty()) {
    std::ostringstream os;
    os << "apply_causal(" << dot.origin << ":" << dot.counter
       << "): indexed=" << applied << " reference=" << mine;
    divergence_ = os.str();
  }
}

void ReferenceDrain::on_apply_local(const Dot& dot) {
  if (!applied_.contains(dot)) apply_unscheduled(*txns_.find(dot));
}

void ReferenceDrain::on_seeded(const VersionVector& v) { state_.merge(v); }

void ReferenceDrain::on_drained() { drain(); }

void ReferenceDrain::on_masks_recomputed() {
  // Re-judge the whole history in visibility order under the primary's
  // current policy; policy transactions keep their at-apply decision.
  std::unordered_set<Dot> new_masked;
  bool flipped = false;
  for (const Dot& dot : log_) {
    const Transaction* txn = txns_.find(dot);
    COLONY_ASSERT(txn != nullptr, "visibility log references unknown txn");
    const bool is_policy_txn =
        std::any_of(txn->ops.begin(), txn->ops.end(), [&](const OpRecord& op) {
          return op.key == primary_.policy_key();
        });
    bool masked = is_policy_txn ? masked_.contains(dot) : vetoed(*txn);
    if (!masked && !is_policy_txn) {
      VersionVector eff;
      if (txns_.effective_snapshot(dot, eff)) {
        for (const Dot& m : new_masked) {
          const Transaction* masked_txn = txns_.find(m);
          if (masked_txn != nullptr && txns_.visible_at(m, eff) &&
              masked_dependency(*txn, *masked_txn)) {
            masked = true;
            break;
          }
        }
      }
    }
    if (masked) new_masked.insert(dot);
    if (masked != masked_.contains(dot)) flipped = true;
  }
  if (flipped) masked_ = std::move(new_masked);
}

void ReferenceDrain::on_restored() { sync_from_primary(); }

void ReferenceDrain::on_reset() { reset(); }

// ---------------------------------------------------------------------------
// The fixpoint drain.
// ---------------------------------------------------------------------------

void ReferenceDrain::drain() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (try_apply(*it)) {
        pending_set_.erase(*it);
        it = pending_.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
  }
}

bool ReferenceDrain::try_apply(const Dot& dot) {
  const Transaction* txn = txns_.find(dot);
  COLONY_ASSERT(txn != nullptr, "pending dot without transaction record");
  if (applied_.contains(dot)) return true;  // e.g. applied locally earlier
  if (!txn->meta.concrete) return false;

  VersionVector eff;
  if (!txns_.effective_snapshot(dot, eff)) return false;
  if (!eff.leq(state_)) return false;

  // Order within a ready batch: defer while a causal predecessor is still
  // pending; the drain re-passes until no progress, so this only reorders,
  // never starves (causality is acyclic).
  for (const Dot& other : pending_) {
    if (other == dot) continue;
    if (txns_.visible_at(other, eff)) return false;
  }

  bool masked = vetoed(*txn);
  for (auto it = masked_.begin(); !masked && it != masked_.end(); ++it) {
    const Transaction* masked_txn = txns_.find(*it);
    masked = masked_txn != nullptr && txns_.visible_at(*it, eff) &&
             masked_dependency(*txn, *masked_txn);
  }

  record_applied(dot, masked);
  advance_state(txn->meta);
  return true;
}

void ReferenceDrain::apply_unscheduled(const Transaction& txn) {
  const Dot dot = txn.meta.dot;
  record_applied(dot, vetoed(txn));
  if (txn.meta.concrete) advance_state(txn.meta);
  if (pending_set_.erase(dot) != 0) std::erase(pending_, dot);
}

void ReferenceDrain::record_applied(const Dot& dot, bool masked) {
  applied_.insert(dot);
  if (masked) masked_.insert(dot);
  log_.push_back(dot);
}

void ReferenceDrain::advance_state(const TxnMeta& meta) {
  if (!primary_.sequential_components()) {
    state_.merge(meta.commit_lub());
    return;
  }
  state_.merge(meta.snapshot);
  meta.for_each_accepted([&](DcId dc) {
    applied_slots_.record(Dot{dc, meta.commit.at(dc)});
    const Timestamp prefix = applied_slots_.prefix(dc);
    if (prefix > state_.at(dc)) state_.set(dc, prefix);
  });
}

bool ReferenceDrain::vetoed(const Transaction& txn) const {
  const auto& check = primary_.security_check();
  return check != nullptr && !check(txn);
}

// ---------------------------------------------------------------------------
// State sync.
// ---------------------------------------------------------------------------

void ReferenceDrain::reset() {
  state_ = VersionVector(state_.size());
  applied_slots_.clear();
  log_.clear();
  applied_.clear();
  masked_.clear();
  pending_set_.clear();
  pending_.clear();
  divergence_.clear();
}

void ReferenceDrain::sync_from_primary() {
  Encoder enc;
  primary_.encode_state(enc);
  Decoder dec(enc.data());
  reset();
  state_ = VersionVector::decode(dec);
  (void)VersionVector::decode(dec);  // seeded cut: outside the relation
  applied_slots_.decode(dec);
  const auto read_dots = [&dec] {
    std::vector<Dot> dots(dec.u32());
    for (Dot& dot : dots) dot = Dot::decode(dec);
    return dots;
  };
  log_ = read_dots();  // the applied set, in visibility order
  applied_.insert(log_.begin(), log_.end());
  const std::vector<Dot> masked = read_dots();
  masked_.insert(masked.begin(), masked.end());
  pending_ = read_dots();  // sorted: a deterministic arrival order
  pending_set_.insert(pending_.begin(), pending_.end());
  COLONY_ASSERT(dec.ok() && dec.done(), "engine state decode mismatch");
  drain();
}

}  // namespace colony
